//! Heterogeneous platform description: devices and interconnect links.
//!
//! The model follows the paper's system (§IV-A): one multicore CPU (the
//! *default device*), one GPU and one FPGA, connected by PCIe-like links.
//! Device parameters are abstract but calibrated so that the qualitative
//! trade-offs of the paper hold:
//!
//! * the CPU is a solid all-rounder; tasks scale with parallelizability
//!   through Amdahl's law over its cores;
//! * the GPU has enormous peak throughput but collapses on poorly
//!   parallelizable tasks (the Amdahl cliff) and every off-device edge
//!   pays PCIe transfer costs;
//! * the FPGA is slow per cycle but pipelines streamable tasks, executes
//!   resident tasks *spatially* (concurrently) and can stream data along
//!   co-located task chains, at the price of a finite area budget.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a device inside a [`Platform`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Position in the platform's device array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Broad device class; drives the evaluator's execution semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceKind {
    /// Temporal device, Amdahl multicore scaling.
    Cpu,
    /// Temporal device, Amdahl scaling over many cores with a dispatch
    /// efficiency and per-task launch latency.
    Gpu,
    /// Spatial dataflow device: resident tasks run concurrently, streams
    /// along co-located edges, bounded by an area budget.
    Fpga,
}

/// Kind-specific device parameters.
#[derive(Clone, Debug)]
pub enum DeviceSpec {
    /// Multicore CPU.
    Cpu {
        /// Number of cores available to a single task.
        cores: f64,
        /// Abstract operations per second per core.
        core_throughput: f64,
    },
    /// GPU-style accelerator.
    Gpu {
        /// Number of parallel lanes.
        cores: f64,
        /// Abstract operations per second per lane.
        core_throughput: f64,
        /// Fraction of peak reachable by real kernels (0, 1].
        dispatch_efficiency: f64,
        /// Fixed kernel-launch latency per task, in seconds.
        launch_latency: f64,
        /// Throughput of the *serial* fraction of a task (heterogeneous
        /// Amdahl: GPU scalar execution is far slower than a CPU core, so
        /// the cliff for imperfectly parallelizable tasks is steep — the
        /// effect the paper's 50 %-perfect augmentation targets).
        serial_throughput: f64,
    },
    /// FPGA-style dataflow accelerator.
    Fpga {
        /// Abstract operations per second per unit of streamability.
        base_throughput: f64,
        /// Cap on the exploitable streamability factor.
        max_streamability: f64,
        /// Total area budget, in abstract area units.
        area_capacity: f64,
        /// Pipeline-fill fraction for streaming edges (DESIGN §6.3).
        fill_fraction: f64,
    },
}

/// A named processing unit.
#[derive(Clone, Debug)]
pub struct Device {
    /// Human-readable name (e.g. `"epyc7351p"`).
    pub name: String,
    /// Kind-specific parameters.
    pub spec: DeviceSpec,
}

impl Device {
    /// The broad class of this device.
    pub fn kind(&self) -> DeviceKind {
        match self.spec {
            DeviceSpec::Cpu { .. } => DeviceKind::Cpu,
            DeviceSpec::Gpu { .. } => DeviceKind::Gpu,
            DeviceSpec::Fpga { .. } => DeviceKind::Fpga,
        }
    }

    /// Area budget for FPGAs, 0 otherwise.
    pub fn area_capacity(&self) -> f64 {
        match self.spec {
            DeviceSpec::Fpga { area_capacity, .. } => area_capacity,
            _ => 0.0,
        }
    }
}

/// A directed interconnect link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Bytes per second.
    pub bandwidth: f64,
    /// Fixed latency in seconds.
    pub latency: f64,
}

impl Link {
    /// Time to move `bytes` across this link.
    #[inline]
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

/// A heterogeneous platform: devices plus a full link matrix.
///
/// Like [`spmap_graph::TaskGraph`], a platform memoizes its content
/// fingerprint ([`crate::platform_fingerprint`]); `set_link` and
/// `device_mut` clear the memo.
#[derive(Clone, Debug)]
pub struct Platform {
    devices: Vec<Device>,
    /// `links[from][to]`; the diagonal is ignored (same-device transfers
    /// are free in the model).
    links: Vec<Vec<Link>>,
    /// The device that hosts the initial all-default mapping (the CPU in
    /// the paper).
    default_device: DeviceId,
    /// Memo of the content fingerprint; empty until first asked for.
    fingerprint: OnceLock<u128>,
}

impl Platform {
    /// Build a platform from devices with a uniform placeholder link
    /// (10 GB/s, 20 µs); customize with [`Platform::set_link`].
    pub fn new(devices: Vec<Device>, default_device: DeviceId) -> Self {
        assert!(!devices.is_empty());
        assert!(default_device.index() < devices.len());
        let m = devices.len();
        let links = vec![
            vec![
                Link {
                    bandwidth: 10e9,
                    latency: 20e-6,
                };
                m
            ];
            m
        ];
        Self {
            devices,
            links,
            default_device,
            fingerprint: OnceLock::new(),
        }
    }

    /// The memoized content fingerprint (see [`crate::fingerprint`]).
    pub(crate) fn fingerprint(&self) -> u128 {
        *self
            .fingerprint
            .get_or_init(|| crate::fingerprint::hash_platform(self))
    }

    /// Set both directions of the link between `a` and `b`.
    pub fn set_link(&mut self, a: DeviceId, b: DeviceId, link: Link) {
        self.fingerprint.take();
        self.links[a.index()][b.index()] = link;
        self.links[b.index()][a.index()] = link;
    }

    /// Number of devices.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Iterator over all device ids.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.devices.len() as u32).map(DeviceId)
    }

    /// The device stored at `d`.
    #[inline]
    pub fn device(&self, d: DeviceId) -> &Device {
        &self.devices[d.index()]
    }

    /// Mutable access to the device stored at `d` (for building platform
    /// variants in experiments and ablations).
    #[inline]
    pub fn device_mut(&mut self, d: DeviceId) -> &mut Device {
        self.fingerprint.take();
        &mut self.devices[d.index()]
    }

    /// The default device (CPU).
    #[inline]
    pub fn default_device(&self) -> DeviceId {
        self.default_device
    }

    /// `true` if `d` is a spatial dataflow device.
    #[inline]
    pub fn is_fpga(&self, d: DeviceId) -> bool {
        self.devices[d.index()].kind() == DeviceKind::Fpga
    }

    /// Pipeline-fill fraction of `d` (0 for non-FPGAs).
    #[inline]
    pub fn fill_fraction(&self, d: DeviceId) -> f64 {
        match self.devices[d.index()].spec {
            DeviceSpec::Fpga { fill_fraction, .. } => fill_fraction,
            _ => 0.0,
        }
    }

    /// The directed link parameters `from -> to` (the diagonal is a
    /// placeholder — same-device transfers are free in the model).
    #[inline]
    pub fn link(&self, from: DeviceId, to: DeviceId) -> Link {
        self.links[from.index()][to.index()]
    }

    /// Transfer time for `bytes` moving from device `from` to device `to`.
    /// Same-device transfers are free (shared memory / on-chip streams).
    #[inline]
    pub fn transfer_time(&self, bytes: f64, from: DeviceId, to: DeviceId) -> f64 {
        if from == to {
            0.0
        } else {
            self.links[from.index()][to.index()].transfer_time(bytes)
        }
    }

    /// The calibrated reference platform of the paper's evaluation system:
    /// AMD Epyc 7351P (16 cores) + AMD Radeon RX Vega 56 + Xilinx XCZ7045,
    /// star-connected over PCIe-like links.  Device 0 (CPU) is the default
    /// device.  See DESIGN.md §6.2 for the calibration rationale.
    pub fn reference() -> Self {
        let cpu = Device {
            name: "epyc7351p".into(),
            spec: DeviceSpec::Cpu {
                cores: 16.0,
                core_throughput: 0.3e9,
            },
        };
        let gpu = Device {
            name: "vega56".into(),
            spec: DeviceSpec::Gpu {
                cores: 3584.0,
                core_throughput: 0.08e9,
                dispatch_efficiency: 0.35,
                launch_latency: 10e-6,
                serial_throughput: 0.015e9,
            },
        };
        let fpga = Device {
            name: "xcz7045".into(),
            spec: DeviceSpec::Fpga {
                // Calibrated so a lone task is always *slower* on the
                // FPGA than on the CPU (0.02e9 · s_max < CPU serial
                // 0.3e9): un-streamed offload never pays per-task, so the
                // FPGA's value comes from pipelined chains — §III-B's
                // local-minimum scenario.  See EXPERIMENTS.md.
                base_throughput: 0.02e9,
                max_streamability: 7.0,
                // ~40 median tasks (median area = 8 x 7.4 = 59 units):
                // enough fabric for several streaming chains.  See
                // EXPERIMENTS.md (calibration notes).
                area_capacity: 2400.0,
                fill_fraction: 0.05,
            },
        };
        let mut p = Platform::new(vec![cpu, gpu, fpga], DeviceId(0));
        p.set_link(
            DeviceId(0),
            DeviceId(1),
            Link {
                bandwidth: 12e9,
                latency: 20e-6,
            },
        );
        // FPGA links are far below PCIe peak: the effective rate includes
        // DMA setup, driver overhead and width conversion into the fabric
        // clock domain — calibrated so single-task offloads lose to the
        // transfer cost (the paper's §III-B local-minimum scenario).
        p.set_link(
            DeviceId(0),
            DeviceId(2),
            Link {
                bandwidth: 1.2e9,
                latency: 30e-6,
            },
        );
        // GPU <-> FPGA is staged through the host.
        p.set_link(
            DeviceId(1),
            DeviceId(2),
            Link {
                bandwidth: 1.0e9,
                latency: 50e-6,
            },
        );
        p
    }

    /// A platform consisting of the reference CPU only (the baseline every
    /// relative improvement is measured against).
    pub fn cpu_only() -> Self {
        Platform::new(
            vec![Device {
                name: "epyc7351p".into(),
                spec: DeviceSpec::Cpu {
                    cores: 16.0,
                    core_throughput: 0.3e9,
                },
            }],
            DeviceId(0),
        )
    }

    /// Reference CPU + GPU, no FPGA — the "low heterogeneity" setting the
    /// HEFT family was designed for.
    pub fn cpu_gpu() -> Self {
        let mut p = Platform::reference();
        p.fingerprint.take();
        p.devices.truncate(2);
        p.links.truncate(2);
        for row in &mut p.links {
            row.truncate(2);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_platform_shape() {
        let p = Platform::reference();
        assert_eq!(p.device_count(), 3);
        assert_eq!(p.default_device(), DeviceId(0));
        assert_eq!(p.device(DeviceId(0)).kind(), DeviceKind::Cpu);
        assert_eq!(p.device(DeviceId(1)).kind(), DeviceKind::Gpu);
        assert_eq!(p.device(DeviceId(2)).kind(), DeviceKind::Fpga);
        assert!(p.is_fpga(DeviceId(2)));
        assert!(!p.is_fpga(DeviceId(0)));
        assert_eq!(p.device(DeviceId(2)).area_capacity(), 2400.0);
        assert_eq!(p.fill_fraction(DeviceId(2)), 0.05);
        assert_eq!(p.fill_fraction(DeviceId(0)), 0.0);
    }

    #[test]
    fn transfer_times() {
        let p = Platform::reference();
        // Same device: free.
        assert_eq!(p.transfer_time(1e9, DeviceId(0), DeviceId(0)), 0.0);
        // CPU -> GPU: 100 MB over 12 GB/s + 20 µs.
        let t = p.transfer_time(100e6, DeviceId(0), DeviceId(1));
        assert!((t - (100e6 / 12e9 + 20e-6)).abs() < 1e-12);
        // Symmetric.
        assert_eq!(
            p.transfer_time(100e6, DeviceId(0), DeviceId(1)),
            p.transfer_time(100e6, DeviceId(1), DeviceId(0))
        );
    }

    #[test]
    fn link_transfer_time() {
        let l = Link {
            bandwidth: 1e9,
            latency: 1e-3,
        };
        assert!((l.transfer_time(2e9) - 2.001).abs() < 1e-12);
    }

    #[test]
    fn cpu_only_platform() {
        let p = Platform::cpu_only();
        assert_eq!(p.device_count(), 1);
        assert_eq!(p.device(DeviceId(0)).kind(), DeviceKind::Cpu);
    }

    #[test]
    fn cpu_gpu_platform() {
        let p = Platform::cpu_gpu();
        assert_eq!(p.device_count(), 2);
        assert_eq!(p.device(DeviceId(1)).kind(), DeviceKind::Gpu);
        // Link survives truncation.
        let t = p.transfer_time(12e9, DeviceId(0), DeviceId(1));
        assert!((t - (1.0 + 20e-6)).abs() < 1e-9);
    }
}
