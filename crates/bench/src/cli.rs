//! Tiny argument parsing shared by the experiment binaries.
//!
//! Supported flags (each binary documents its own defaults):
//!
//! * `--graphs <n>` — replicates per data point (paper: 30),
//! * `--step <n>` — task-count step of the sweep,
//! * `--full` — paper-scale settings (more replicates, larger limits),
//! * `--quick` — smoke-test settings (fewer replicates, smaller sweeps),
//! * `--seed <n>` — base experiment seed,
//! * `--threads <n>` — worker threads for binaries that measure
//!   parallel speedups (e.g. `perf_report`; clamped to ≥ 1),
//! * `--report-schedules <k>` — random schedules of the
//!   `report_makespan` cost model for binaries that sweep it
//!   (`perf_report`; `0` skips the report-mode measurements),
//! * `--ga-only` — skip everything but the GA measurements
//!   (`perf_report`: the full-size GA rows with their exactness and
//!   GA-vs-serial gates, without paying for the mapper sweeps),
//! * `--xl` — scale-tier run (`perf_report`: 10k–100k-node layered
//!   DAGs exercising the cache-conscious kernel and suffix-sparse
//!   checkpoints; combines with `--quick` for a 10k-only smoke),
//! * `--sizes <a,b,..>` — comma-separated task-count override for
//!   binaries that sweep graph sizes (`perf_report`: replaces the
//!   built-in mapper/GA size lists, including the `--full` extension),
//! * `--remap` — remapping-session run (`perf_report`: warm-start
//!   remap latency vs a from-scratch re-map per perturbation kind,
//!   with bit-identity replay checks; combines with `--quick` for a
//!   506-node-only smoke and `--full` for the 10k tier),
//! * `--chaos` — fault-injection run (`perf_report`, requires the
//!   `fault-injection` feature: concurrent clients with seeded panics
//!   injected mid-flight, measuring goodput under a retrying client
//!   and asserting containment + bit-identity of untouched responses;
//!   combines with `--quick` for fewer rounds),
//! * `--out <path>` — output-file override for binaries that write a
//!   JSON report (`perf_report`: defaults are `BENCH_mapper.json`,
//!   `BENCH_mapper_xl.json` for `--xl`, `BENCH_remap.json` for
//!   `--remap`, `BENCH_chaos.json` for `--chaos`).

/// Parsed common options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Replicates per data point.
    pub graphs: Option<usize>,
    /// Sweep step override.
    pub step: Option<usize>,
    /// Paper-scale run.
    pub full: bool,
    /// Smoke-test run.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Worker-thread override for parallel-measurement binaries.
    pub threads: Option<usize>,
    /// Random-schedule count for `report_makespan`-mode measurements
    /// (`None` = binary default; `Some(0)` = skip report mode).
    pub report_schedules: Option<usize>,
    /// GA-only run (`perf_report`: full-size GA rows and their gates,
    /// no mapper sweeps).
    pub ga_only: bool,
    /// Scale-tier run (`perf_report`: 10k–100k-node rows).
    pub xl: bool,
    /// Remapping-session run (`perf_report`: warm-start remap latency
    /// vs from-scratch re-map across perturbation kinds and sizes).
    pub remap: bool,
    /// Fault-injection run (`perf_report`: seeded chaos against the
    /// `MapService`; requires building with `--features
    /// fault-injection`).
    pub chaos: bool,
    /// Output-file override for report-writing binaries.
    pub out: Option<String>,
    /// Explicit task-count list (`None` = binary default sweep).
    pub sizes: Option<Vec<usize>>,
}

impl Opts {
    /// Parse `std::env::args`, ignoring unknown flags with a warning.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Opts {
            graphs: None,
            step: None,
            full: false,
            quick: false,
            seed: 2025,
            threads: None,
            report_schedules: None,
            ga_only: false,
            xl: false,
            remap: false,
            chaos: false,
            out: None,
            sizes: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--graphs" => {
                    opts.graphs = it.next().and_then(|v| v.parse().ok());
                }
                "--step" => {
                    opts.step = it.next().and_then(|v| v.parse().ok());
                }
                "--threads" => {
                    opts.threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .map(|t: usize| t.max(1));
                }
                "--report-schedules" => {
                    opts.report_schedules = it.next().and_then(|v| v.parse().ok());
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                    }
                }
                "--sizes" => {
                    opts.sizes = it.next().map(|v| {
                        v.split(',')
                            .filter(|s| !s.is_empty())
                            .filter_map(|s| s.trim().parse().ok())
                            .collect()
                    });
                    // An unparsable list should not silently select the
                    // default sweep — treat it as "no sizes requested".
                    if opts.sizes.as_deref() == Some(&[]) {
                        eprintln!("warning: --sizes parsed to an empty list; ignoring");
                        opts.sizes = None;
                    }
                }
                "--out" => {
                    opts.out = it.next().filter(|v| !v.is_empty());
                    if opts.out.is_none() {
                        eprintln!("warning: --out requires a path; using the default");
                    }
                }
                "--full" => opts.full = true,
                "--quick" => opts.quick = true,
                "--ga-only" => opts.ga_only = true,
                "--xl" => opts.xl = true,
                "--remap" => opts.remap = true,
                "--chaos" => opts.chaos = true,
                other => eprintln!("warning: ignoring unknown flag {other}"),
            }
        }
        opts
    }

    /// Replicates per point given a default and the quick/full presets.
    pub fn replicates(&self, default: usize, quick: usize, full: usize) -> usize {
        if let Some(g) = self.graphs {
            return g;
        }
        if self.quick {
            quick
        } else if self.full {
            full
        } else {
            default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Opts {
        Opts::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.graphs, None);
        assert!(!o.full && !o.quick);
        assert_eq!(o.seed, 2025);
        assert_eq!(o.replicates(10, 3, 30), 10);
    }

    #[test]
    fn flags() {
        let o = parse(&["--graphs", "7", "--seed", "9", "--full", "--step", "10"]);
        assert_eq!(o.graphs, Some(7));
        assert_eq!(o.seed, 9);
        assert!(o.full);
        assert_eq!(o.step, Some(10));
        assert_eq!(o.replicates(10, 3, 30), 7, "--graphs wins over presets");
    }

    #[test]
    fn threads_flag_clamped_to_one() {
        assert_eq!(parse(&["--threads", "8"]).threads, Some(8));
        assert_eq!(parse(&["--threads", "0"]).threads, Some(1), "0 clamps to 1");
        assert_eq!(parse(&[]).threads, None);
    }

    #[test]
    fn presets() {
        assert_eq!(parse(&["--quick"]).replicates(10, 3, 30), 3);
        assert_eq!(parse(&["--full"]).replicates(10, 3, 30), 30);
    }

    #[test]
    fn ga_only_flag() {
        assert!(!parse(&[]).ga_only);
        assert!(parse(&["--ga-only"]).ga_only);
    }

    #[test]
    fn xl_flag() {
        assert!(!parse(&[]).xl);
        assert!(parse(&["--xl"]).xl);
        let o = parse(&["--xl", "--quick"]);
        assert!(o.xl && o.quick, "--xl combines with --quick");
    }

    #[test]
    fn remap_flag() {
        assert!(!parse(&[]).remap);
        let o = parse(&["--remap", "--quick"]);
        assert!(o.remap && o.quick, "--remap combines with --quick");
    }

    #[test]
    fn chaos_flag() {
        assert!(!parse(&[]).chaos);
        let o = parse(&["--chaos", "--quick"]);
        assert!(o.chaos && o.quick, "--chaos combines with --quick");
    }

    #[test]
    fn out_flag() {
        assert_eq!(parse(&[]).out, None);
        assert_eq!(
            parse(&["--out", "reports/run.json"]).out,
            Some("reports/run.json".to_string())
        );
        assert_eq!(parse(&["--out"]).out, None, "missing value ignored");
        assert_eq!(parse(&["--out", ""]).out, None, "empty value ignored");
    }

    #[test]
    fn sizes_flag() {
        assert_eq!(parse(&[]).sizes, None);
        assert_eq!(parse(&["--sizes", "100"]).sizes, Some(vec![100]));
        assert_eq!(
            parse(&["--sizes", "100,250, 506"]).sizes,
            Some(vec![100, 250, 506]),
            "comma list with stray spaces"
        );
        assert_eq!(parse(&["--sizes", "x,y"]).sizes, None, "garbage ignored");
        assert_eq!(parse(&["--sizes"]).sizes, None, "missing value ignored");
    }

    #[test]
    fn report_schedules_flag() {
        assert_eq!(parse(&[]).report_schedules, None);
        assert_eq!(
            parse(&["--report-schedules", "4"]).report_schedules,
            Some(4)
        );
        assert_eq!(
            parse(&["--report-schedules", "0"]).report_schedules,
            Some(0),
            "0 = skip"
        );
        assert_eq!(parse(&["--report-schedules", "x"]).report_schedules, None);
    }
}
