//! # spmap-ga — single-objective NSGA-II task mapping
//!
//! The metaheuristic baseline of the paper's evaluation (§IV-A):
//! a single-objective variant of NSGA-II (Deb et al.; paper ref. 14)
//! with the paper's parameterization:
//!
//! * population of 100 individuals,
//! * single-point crossover with 90 % crossover rate on a genome ordered
//!   by a topological sort of the tasks,
//! * per-gene mutation rate `1/n`,
//! * a repair function restoring FPGA area feasibility after variation,
//! * 500 generations by default,
//! * fitness = the same model-based makespan evaluation the decomposition
//!   mappers use (the paper stresses this for fairness).
//!
//! In a single-objective setting NSGA-II's non-dominated sorting
//! degenerates to sorting by fitness, and crowding distance is
//! meaningless; survivor selection is therefore the (µ + λ) elitist
//! truncation of the combined parent/offspring population — which is
//! exactly what NSGA-II does when every front is a singleton chain.
//!
//! ## Two implementations, one result
//!
//! [`nsga2_map`] scores every generation through the incremental +
//! parallel population engine (`spmap_core::PopulationEval`): offspring
//! are described as deltas against their prefix parent (fingerprints
//! maintained in `O(k)` per child), fitness values memoize across
//! generations under the mapping-content memo, each offspring replays
//! only the schedule suffix after its window start off the cached
//! checkpoint trail of its nearest base (a parent or one of the fittest
//! survivors), and the surviving simulations of a generation run in
//! parallel.  None of that can change
//! a fitness bit — the simulator is a pure function of the mapping — so
//! the run is **bit-identical per seed** to [`nsga2_map_reference`],
//! the original strictly serial implementation kept as the executable
//! specification (one full simulation per fitness call).  The
//! equivalence suite (`tests/equivalence.rs`) proves it across seeds
//! and thread counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spmap_core::{
    DeltaCandidate, DispatchStats, Numbering, PopBase, PopulationConfig, PopulationEval,
    PopulationStats,
};
use spmap_graph::{ops, NodeId, TaskGraph};
use spmap_model::{DeviceId, Evaluator, Mapping, MappingFingerprint, Platform};

/// NSGA-II parameters (defaults = the paper's §IV-A values).
#[derive(Clone, Debug)]
pub struct GaConfig {
    /// Population size (paper: 100).
    pub population: usize,
    /// Number of generations (paper: 500 unless stated otherwise).
    pub generations: usize,
    /// Single-point crossover probability (paper: 0.9).
    pub crossover_rate: f64,
    /// Per-gene mutation probability; `None` = `1/n` (paper).
    pub mutation_rate: Option<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads of the engine-backed [`nsga2_map`]; `None` reads
    /// `SPMAP_THREADS` / machine parallelism.  Ignored by the serial
    /// reference path.
    pub threads: Option<usize>,
    /// Fitness-memo entry cap of the engine-backed path
    /// (generation-stamped LRU; `0` = unbounded).
    pub memo_capacity: usize,
    /// Trail-cache slot cap of the engine-backed path (`0` = the
    /// engine's memory-budget heuristic).  Eviction only ever costs
    /// re-simulation — it cannot change a result.
    pub trail_cache_capacity: usize,
    /// Node numbering of the engine's evaluation tables (layout only —
    /// results are bit-identical; see `spmap_core::Numbering`).
    pub numbering: Numbering,
    /// Pin the engine's checkpoint trails to the dense snapshot layout
    /// (ablation / bit-identity cells; suffix-sparse is the default
    /// under pop-order numbering and halves trail bytes).
    pub dense_checkpoints: bool,
    /// Per-trail checkpoint byte budget of the engine-backed path
    /// (`0` = the 32 MiB default).  Widens the snapshot interval —
    /// a memory/replay-length trade that never changes results.
    pub checkpoint_budget_bytes: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 500,
            crossover_rate: 0.9,
            mutation_rate: None,
            seed: 0,
            threads: None,
            memo_capacity: spmap_core::DEFAULT_MEMO_CAPACITY,
            trail_cache_capacity: 0,
            numbering: Numbering::default(),
            dense_checkpoints: false,
            checkpoint_budget_bytes: 0,
        }
    }
}

impl GaConfig {
    /// Paper defaults with a specific generation count and seed.
    pub fn with_generations(generations: usize, seed: u64) -> Self {
        Self {
            generations,
            seed,
            ..Self::default()
        }
    }
}

/// Result of a GA run.
#[derive(Clone, Debug)]
pub struct GaResult {
    /// Best mapping found.
    pub mapping: Mapping,
    /// Its makespan under the breadth-first schedule.
    pub makespan: f64,
    /// Makespan of the all-CPU default mapping.
    pub cpu_only_makespan: f64,
    /// Total number of model evaluations.  For the engine-backed path
    /// this counts actual simulations (full, windowed and trail runs);
    /// memo-answered fitness calls run none.
    pub evaluations: u64,
    /// Total schedule positions those evaluations stepped (each full
    /// simulation steps `n`; windowed replays step only their suffix
    /// after the restored snapshot) — the honest work measure of the
    /// windowing machinery.
    pub positions: u64,
    /// Best fitness after each generation (non-increasing).
    pub best_per_generation: Vec<f64>,
    /// Population-engine decision counters (zero for the serial
    /// reference path).  Thread-count-invariant — pinned by the
    /// equivalence suite.
    pub engine: PopulationStats,
    /// How the engine's parallel batches were dispatched (serial fast
    /// path / persistent-pool wakes; zero for the serial reference
    /// path).  Varies with the thread count by design — the GA
    /// dispatches roughly one small batch per generation, and these
    /// counters show how many of them woke the persistent pool.
    pub dispatch: DispatchStats,
    /// Largest single checkpoint trail the engine held (bytes; zero for
    /// the serial reference path).  The number
    /// `GaConfig::checkpoint_budget_bytes` gates.
    pub checkpoint_peak_bytes: u64,
}

impl GaResult {
    /// Relative improvement over the pure-CPU mapping, truncated at zero.
    pub fn relative_improvement(&self) -> f64 {
        spmap_model::relative_improvement(self.cpu_only_makespan, self.makespan)
    }
}

/// Write `genome` into `mapping` (position `i` = task `topo[i]`); every
/// task is assigned, so any previous content is fully overwritten — the
/// buffer is reusable across decodes (no per-fitness-call allocation).
fn decode_into(mapping: &mut Mapping, genome: &[u8], topo: &[NodeId]) {
    for (i, &gene) in genome.iter().enumerate() {
        mapping.set(topo[i], DeviceId(gene as u32));
    }
}

/// Repair: evict tasks from over-full FPGAs, largest area first, until
/// the budget holds.  Deterministic, so equal seeds give equal runs.
fn repair(
    graph: &TaskGraph,
    platform: &Platform,
    topo: &[NodeId],
    default_gene: u8,
    genome: &mut [u8],
) {
    for d in platform.device_ids() {
        if !platform.is_fpga(d) {
            continue;
        }
        let cap = platform.device(d).area_capacity();
        let mut used: f64 = genome
            .iter()
            .enumerate()
            .filter(|&(_, &gene)| gene as u32 == d.0)
            .map(|(i, _)| graph.task(topo[i]).area)
            .sum();
        while used > cap + 1e-9 {
            let (worst, area) = genome
                .iter()
                .enumerate()
                .filter(|&(_, &gene)| gene as u32 == d.0)
                .map(|(i, _)| (i, graph.task(topo[i]).area))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("over-full device has at least one task");
            genome[worst] = default_gene;
            used -= area;
        }
    }
}

/// How many of the fittest population members (beyond the two parents)
/// the window-base search considers per child.
const WINDOW_BASE_POOL: usize = 20;

/// Probe budget of the capped shortlisting walk (the winner gets one
/// uncapped walk for its exact window start).
const WINDOW_WALK_CAP: usize = 96;

/// A sound window start for `genome` against `base`: a breadth-first
/// pop position such that the two mappings agree on every task read
/// before it.  Walks positions in ascending earliest-read order, so
/// the first difference yields the *exact* (latest sound) start;
/// hitting the probe `cap` without a difference yields a conservative
/// lower bound instead (all diffs lie at later-read positions).
fn window_start(
    genome: &[u8],
    base: &[u8],
    scan_order: &[u32],
    earliest_read: &[usize],
    cap: usize,
) -> usize {
    let lim = cap.min(scan_order.len());
    for &i in &scan_order[..lim] {
        let i = i as usize;
        if genome[i] != base[i] {
            return earliest_read[i];
        }
    }
    if lim < scan_order.len() {
        earliest_read[scan_order[lim] as usize]
    } else {
        genome.len()
    }
}

/// Binary tournament over a fitness slice: two uniform picks, the
/// better (lower) fitness wins, ties to the first pick.
fn tournament(fitness: &[f64], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..fitness.len());
    let b = rng.gen_range(0..fitness.len());
    if fitness[a] <= fitness[b] {
        a
    } else {
        b
    }
}

/// One individual of the engine-backed population: genome, fitness, and
/// the decoded mapping with its content fingerprint (maintained
/// incrementally, so offspring cost `O(k)` fingerprint work).
struct EngineIndividual {
    genome: Vec<u8>,
    fitness: f64,
    mapping: Mapping,
    fp: MappingFingerprint,
}

/// Run an [`Algo::Ga`](spmap_core::Algo::Ga) [`MapRequest`] through the
/// engine-backed NSGA-II mapper — the GA half of the unified request
/// surface (`spmap_core::map_request` handles the decomposition
/// families and refuses this one, pointing here).
///
/// The request's [`GaParams`](spmap_core::GaParams) name the algorithm;
/// engine-side knobs (threads, numbering, checkpoint layout/budget)
/// come from `limits.engine`, and the remaining `GaConfig` fields keep
/// their defaults.  Bit-identical to [`nsga2_map`] with the equivalent
/// `GaConfig`.
///
/// `limits.devices` restrictions are not supported by the genome
/// encoding (it spans every platform device) and are refused with
/// [`MapperError::UnsupportedAlgo`](spmap_core::MapperError).
pub fn nsga2_map_request(
    req: &spmap_core::MapRequest,
) -> Result<GaResult, spmap_core::MapperError> {
    let spmap_core::Algo::Ga(p) = req.algo else {
        return Err(spmap_core::MapperError::UnsupportedAlgo {
            algo: "decomposition (route through spmap_core::map_request)",
        });
    };
    if req.limits.devices.is_some() {
        return Err(spmap_core::MapperError::UnsupportedAlgo {
            algo: "nsga2 with a device restriction",
        });
    }
    let cfg = GaConfig {
        population: p.population,
        generations: p.generations,
        crossover_rate: p.crossover_rate,
        mutation_rate: p.mutation_rate,
        seed: p.seed,
        threads: req.limits.engine.threads,
        numbering: req.limits.engine.numbering,
        dense_checkpoints: req.limits.engine.dense_checkpoints,
        checkpoint_budget_bytes: req.limits.engine.checkpoint_budget_bytes,
        ..GaConfig::default()
    };
    Ok(nsga2_map(&req.graph, &req.platform, &cfg))
}

/// Run the single-objective NSGA-II mapper through the population
/// evaluation engine.
///
/// Bit-identical per seed to [`nsga2_map_reference`] in mapping,
/// makespan, baseline and per-generation history (the engine only
/// changes *how much work* each fitness value costs, never its bits);
/// `evaluations` counts actual simulations and is therefore lower.
pub fn nsga2_map(graph: &TaskGraph, platform: &Platform, cfg: &GaConfig) -> GaResult {
    assert!(cfg.population >= 2, "population must be >= 2");
    assert!(
        platform.device_count() <= u8::MAX as usize,
        "genome encodes devices as u8"
    );
    let n = graph.node_count();
    let m = platform.device_count() as u8;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut engine = PopulationEval::new(
        graph,
        platform,
        PopulationConfig {
            threads: cfg.threads,
            memo_capacity: cfg.memo_capacity,
            trail_cache_capacity: cfg.trail_cache_capacity,
            numbering: cfg.numbering,
            dense_checkpoints: cfg.dense_checkpoints,
            checkpoint_budget_bytes: cfg.checkpoint_budget_bytes,
        },
    );
    let mutation_rate = cfg.mutation_rate.unwrap_or(1.0 / n.max(1) as f64);
    let topo: Vec<NodeId> = ops::topo_order(graph).expect("task graphs are DAGs");
    let default_gene = platform.default_device().0 as u8;

    // Initial population: the pure-CPU individual plus random genomes
    // (identical RNG consumption to the reference — fitness evaluation
    // never draws from the stream, so batching it is invisible).
    let mut genomes: Vec<Vec<u8>> = Vec::with_capacity(cfg.population);
    genomes.push(vec![default_gene; n]);
    while genomes.len() < cfg.population {
        let mut genome: Vec<u8> = (0..n).map(|_| rng.gen_range(0..m)).collect();
        repair(graph, platform, &topo, default_gene, &mut genome);
        genomes.push(genome);
    }
    let mut pop: Vec<EngineIndividual> = genomes
        .into_iter()
        .map(|genome| {
            let mut mapping = Mapping::uniform(n, platform.default_device());
            decode_into(&mut mapping, &genome, &topo);
            let fp = MappingFingerprint::of(&mapping);
            EngineIndividual {
                genome,
                fitness: f64::NAN,
                mapping,
                fp,
            }
        })
        .collect();
    {
        let cands: Vec<DeltaCandidate<'_>> = pop
            .iter()
            .map(|ind| DeltaCandidate {
                mapping: &ind.mapping,
                fingerprint: ind.fp.value(),
                base: None,
                window_start: 0,
            })
            .collect();
        let fits = engine.evaluate(&[], &cands);
        drop(cands);
        for (ind, f) in pop.iter_mut().zip(fits) {
            ind.fitness = f.expect("repaired genomes are area-feasible");
        }
    }
    // Earliest-read position per *genome position* (gene `i` is task
    // `topo[i]`), plus genome positions sorted by ascending earliest
    // read: walking two genomes in that order, the first differing
    // position *is* their shared window start — so the nearest-base
    // search pays only one short walk per dissimilar base.
    let earliest_read: Vec<usize> = topo
        .iter()
        .map(|&v| engine.tables().earliest_read_pos(v))
        .collect();
    let mut scan_order: Vec<u32> = (0..n as u32).collect();
    scan_order.sort_by_key(|&i| (earliest_read[i as usize], i));
    let cpu_only_makespan = pop[0].fitness;
    pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

    // Recycled buffers: mappings of truncated individuals become the
    // next generation's offspring buffers — zero steady-state
    // allocation of mapping storage.
    let mut spare: Vec<Mapping> = Vec::new();
    let mut fitness_view: Vec<f64> = Vec::with_capacity(cfg.population);
    let mut best_per_generation = Vec::with_capacity(cfg.generations);
    for _ in 0..cfg.generations {
        // Variation: binary tournaments, single-point crossover,
        // mutation — the exact RNG stream of the reference loop.
        fitness_view.clear();
        fitness_view.extend(pop.iter().map(|i| i.fitness));
        let mut staged: Vec<(Vec<u8>, usize, usize)> = Vec::with_capacity(cfg.population);
        while staged.len() < cfg.population {
            let pa = tournament(&fitness_view, &mut rng);
            let pb = tournament(&fitness_view, &mut rng);
            let (mut ca, mut cb) = if n >= 2 && rng.gen_bool(cfg.crossover_rate) {
                let cut = rng.gen_range(1..n);
                let mut ca = pop[pa].genome.clone();
                let mut cb = pop[pb].genome.clone();
                for i in cut..n {
                    std::mem::swap(&mut ca[i], &mut cb[i]);
                }
                (ca, cb)
            } else {
                (pop[pa].genome.clone(), pop[pb].genome.clone())
            };
            for child in [&mut ca, &mut cb] {
                for gene in child.iter_mut() {
                    if rng.gen_bool(mutation_rate) {
                        *gene = rng.gen_range(0..m);
                    }
                }
                repair(graph, platform, &topo, default_gene, child);
            }
            for (genome, prefix_parent, suffix_parent) in [(ca, pa, pb), (cb, pb, pa)] {
                if staged.len() < cfg.population {
                    staged.push((genome, prefix_parent, suffix_parent));
                }
            }
        }
        // Decode offspring as parent-relative deltas: mapping copy +
        // O(k) fingerprint toggles from the prefix parent, plus the
        // best window base among {prefix parent, suffix parent, the
        // incumbent pop[0]} — the one whose diff is first read latest
        // in the breadth-first schedule.  The choice only affects how
        // much of the schedule is replayed, never a fitness bit.
        let mut off: Vec<EngineIndividual> = Vec::with_capacity(staged.len());
        let mut off_base: Vec<usize> = Vec::with_capacity(staged.len());
        let mut off_pos: Vec<usize> = Vec::with_capacity(staged.len());
        for (genome, prefix_parent, suffix_parent) in staged {
            let parent = &pop[prefix_parent];
            let mut mapping = match spare.pop() {
                Some(mut buf) => {
                    buf.copy_from(&parent.mapping);
                    buf
                }
                None => parent.mapping.clone(),
            };
            let mut fp = parent.fp;
            for i in 0..n {
                if genome[i] != parent.genome[i] {
                    let v = topo[i];
                    fp.toggle(
                        v,
                        DeviceId(parent.genome[i] as u32),
                        DeviceId(genome[i] as u32),
                    );
                    mapping.set(v, DeviceId(genome[i] as u32));
                }
            }
            // Window base: the nearest neighbor (latest first-read
            // difference) among both parents and the fittest survivors
            // — converged populations cluster around the elite, so an
            // elite trail windows most children late.  Capped walks
            // shortlist; only the winner pays an uncapped walk for its
            // exact window start.
            let mut short: [(usize, usize); 2] = [(0, prefix_parent), (0, suffix_parent)];
            for b in (0..pop.len().min(WINDOW_BASE_POOL)).chain([prefix_parent, suffix_parent]) {
                let pos = window_start(
                    &genome,
                    &pop[b].genome,
                    &scan_order,
                    &earliest_read,
                    WINDOW_WALK_CAP,
                );
                if pos > short[0].0 {
                    short[1] = short[0];
                    short[0] = (pos, b);
                } else if pos > short[1].0 && b != short[0].1 {
                    short[1] = (pos, b);
                }
            }
            let mut base = short[0].1;
            let mut exact_pos = window_start(
                &genome,
                &pop[base].genome,
                &scan_order,
                &earliest_read,
                usize::MAX,
            );
            if short[1].1 != base {
                let second = window_start(
                    &genome,
                    &pop[short[1].1].genome,
                    &scan_order,
                    &earliest_read,
                    usize::MAX,
                );
                if second > exact_pos {
                    base = short[1].1;
                    exact_pos = second;
                }
            }
            off.push(EngineIndividual {
                genome,
                fitness: f64::NAN,
                mapping,
                fp,
            });
            off_base.push(base);
            off_pos.push(exact_pos);
        }
        {
            let bases: Vec<PopBase<'_>> = pop
                .iter()
                .map(|i| PopBase {
                    mapping: &i.mapping,
                    fingerprint: i.fp.value(),
                })
                .collect();
            let cands: Vec<DeltaCandidate<'_>> = off
                .iter()
                .zip(&off_base)
                .zip(&off_pos)
                .map(|((ind, &b), &pos)| DeltaCandidate {
                    mapping: &ind.mapping,
                    fingerprint: ind.fp.value(),
                    base: Some(b),
                    window_start: pos,
                })
                .collect();
            let fits = engine.evaluate(&bases, &cands);
            drop(cands);
            for (ind, f) in off.iter_mut().zip(fits) {
                ind.fitness = f.expect("repaired genomes are area-feasible");
            }
        }
        // (µ + λ) elitist truncation — single-objective NSGA-II survivor
        // selection (stable sort: identical key sequence => identical
        // permutation as the reference).
        pop.append(&mut off);
        pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        spare.extend(pop.drain(cfg.population..).map(|i| i.mapping));
        best_per_generation.push(pop[0].fitness);
    }

    let best = &pop[0];
    GaResult {
        mapping: best.mapping.clone(),
        makespan: best.fitness,
        cpu_only_makespan,
        evaluations: engine.evaluations(),
        positions: engine.positions(),
        best_per_generation,
        engine: engine.stats(),
        dispatch: engine.dispatch(),
        checkpoint_peak_bytes: engine.checkpoint_peak_bytes(),
    }
}

struct Individual {
    genome: Vec<u8>,
    fitness: f64,
}

/// Run the single-objective NSGA-II mapper through the original strictly
/// serial loop — one full model simulation per fitness call, no
/// memoization, no windows, no threads.
///
/// This is the executable specification [`nsga2_map`] is verified
/// against (`tests/equivalence.rs`: identical mapping, makespan and
/// per-generation history for every seed), and the baseline
/// `perf_report --quick`'s `ga` rows measure speedups from.
pub fn nsga2_map_reference(graph: &TaskGraph, platform: &Platform, cfg: &GaConfig) -> GaResult {
    assert!(cfg.population >= 2, "population must be >= 2");
    assert!(
        platform.device_count() <= u8::MAX as usize,
        "genome encodes devices as u8"
    );
    let n = graph.node_count();
    let m = platform.device_count() as u8;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluator = Evaluator::new(graph, platform);
    let mutation_rate = cfg.mutation_rate.unwrap_or(1.0 / n.max(1) as f64);

    // Genome position i corresponds to task topo[i]: crossover points cut
    // the genome into a topological prefix and suffix, giving crossover a
    // locality meaning on the DAG (paper: "topologically sorted genome").
    let topo: Vec<NodeId> = ops::topo_order(graph).expect("task graphs are DAGs");
    let default_gene = platform.default_device().0 as u8;

    // One reusable decode buffer for every fitness call of the run (the
    // hot loop used to allocate a fresh mapping per call).
    let mut scratch = Mapping::uniform(n, platform.default_device());
    let fitness_of = |genome: &[u8], ev: &mut Evaluator<'_>, scratch: &mut Mapping| -> f64 {
        decode_into(scratch, genome, &topo);
        ev.makespan_bfs(scratch)
            .expect("repaired genomes are area-feasible")
    };

    // Initial population: the pure-CPU individual plus random genomes.
    let mut pop: Vec<Individual> = Vec::with_capacity(cfg.population);
    {
        let genome = vec![default_gene; n];
        let fitness = fitness_of(&genome, &mut evaluator, &mut scratch);
        pop.push(Individual { genome, fitness });
    }
    let cpu_only_makespan = pop[0].fitness;
    while pop.len() < cfg.population {
        let mut genome: Vec<u8> = (0..n).map(|_| rng.gen_range(0..m)).collect();
        repair(graph, platform, &topo, default_gene, &mut genome);
        let fitness = fitness_of(&genome, &mut evaluator, &mut scratch);
        pop.push(Individual { genome, fitness });
    }
    pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));

    let mut best_per_generation = Vec::with_capacity(cfg.generations);
    for _ in 0..cfg.generations {
        // Variation: binary tournaments, single-point crossover, mutation.
        let mut offspring: Vec<Individual> = Vec::with_capacity(cfg.population);
        while offspring.len() < cfg.population {
            let pa = tournament_ref(&pop, &mut rng);
            let pb = tournament_ref(&pop, &mut rng);
            let (mut ca, mut cb) = if n >= 2 && rng.gen_bool(cfg.crossover_rate) {
                let cut = rng.gen_range(1..n);
                let mut ca = pop[pa].genome.clone();
                let mut cb = pop[pb].genome.clone();
                for i in cut..n {
                    std::mem::swap(&mut ca[i], &mut cb[i]);
                }
                (ca, cb)
            } else {
                (pop[pa].genome.clone(), pop[pb].genome.clone())
            };
            for child in [&mut ca, &mut cb] {
                for gene in child.iter_mut() {
                    if rng.gen_bool(mutation_rate) {
                        *gene = rng.gen_range(0..m);
                    }
                }
                repair(graph, platform, &topo, default_gene, child);
            }
            for genome in [ca, cb] {
                if offspring.len() < cfg.population {
                    let fitness = fitness_of(&genome, &mut evaluator, &mut scratch);
                    offspring.push(Individual { genome, fitness });
                }
            }
        }
        // (µ + λ) elitist truncation — single-objective NSGA-II survivor
        // selection.
        pop.append(&mut offspring);
        pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        pop.truncate(cfg.population);
        best_per_generation.push(pop[0].fitness);
    }

    let best = &pop[0];
    let mut mapping = Mapping::uniform(n, platform.default_device());
    decode_into(&mut mapping, &best.genome, &topo);
    GaResult {
        mapping,
        makespan: best.fitness,
        cpu_only_makespan,
        evaluations: evaluator.stats().evaluations,
        positions: evaluator.stats().positions,
        best_per_generation,
        engine: PopulationStats::default(),
        dispatch: DispatchStats::default(),
        checkpoint_peak_bytes: 0,
    }
}

fn tournament_ref(pop: &[Individual], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if pop[a].fitness <= pop[b].fitness {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{chain, random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, Task};

    fn small_cfg(seed: u64) -> GaConfig {
        GaConfig {
            population: 24,
            generations: 30,
            seed,
            ..GaConfig::default()
        }
    }

    #[test]
    fn never_worse_than_cpu_only() {
        let p = Platform::reference();
        for seed in 0..4 {
            let mut g = random_sp_graph(&SpGenConfig::new(25, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            let r = nsga2_map(&g, &p, &small_cfg(seed));
            assert!(r.makespan <= r.cpu_only_makespan * (1.0 + 1e-9));
            assert!(r.mapping.is_area_feasible(&g, &p));
        }
    }

    #[test]
    fn finds_improvements_on_augmented_graphs() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(30, 11));
        augment(&mut g, &AugmentConfig::default(), 11);
        let r = nsga2_map(&g, &p, &small_cfg(1));
        assert!(
            r.relative_improvement() > 0.02,
            "GA should find some improvement, got {}",
            r.relative_improvement()
        );
    }

    #[test]
    fn best_fitness_is_monotone() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(20, 5));
        augment(&mut g, &AugmentConfig::default(), 5);
        let r = nsga2_map(&g, &p, &small_cfg(2));
        let mut prev = f64::INFINITY;
        for &b in &r.best_per_generation {
            assert!(b <= prev + 1e-12, "elitism violated");
            prev = b;
        }
        assert_eq!(r.best_per_generation.len(), 30);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(20, 8));
        augment(&mut g, &AugmentConfig::default(), 8);
        let a = nsga2_map(&g, &p, &small_cfg(7));
        let b = nsga2_map(&g, &p, &small_cfg(7));
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.makespan, b.makespan);
        let c = nsga2_map(&g, &p, &small_cfg(8));
        // Different seeds explore differently (makespans may coincide, but
        // almost never across the full generation history).
        assert!(a.best_per_generation != c.best_per_generation || a.mapping == c.mapping);
    }

    #[test]
    fn engine_ga_matches_reference_bitwise() {
        // The headline guarantee in miniature (the full matrix lives in
        // tests/equivalence.rs): the engine-backed GA reproduces the
        // serial reference per seed, bit for bit.
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(26, 13));
        augment(&mut g, &AugmentConfig::default(), 13);
        for seed in [0u64, 9] {
            let cfg = small_cfg(seed);
            let fast = nsga2_map(&g, &p, &cfg);
            let slow = nsga2_map_reference(&g, &p, &cfg);
            assert_eq!(fast.mapping, slow.mapping, "seed {seed}");
            assert_eq!(fast.makespan, slow.makespan, "seed {seed}");
            assert_eq!(
                fast.best_per_generation, slow.best_per_generation,
                "seed {seed}"
            );
            assert_eq!(
                fast.cpu_only_makespan, slow.cpu_only_makespan,
                "seed {seed}"
            );
            assert!(
                fast.engine.memo_hits > 0,
                "a converging GA must produce memo hits: {:?}",
                fast.engine
            );
        }
    }

    #[test]
    fn repair_handles_oversized_tasks() {
        // All tasks love the FPGA but only a few fit: repaired genomes
        // must stay feasible throughout.
        let mut g = chain(10, 1e6);
        for v in 0..10 {
            *g.task_mut(NodeId(v)) = Task {
                name: format!("t{v}"),
                complexity: 20.0,
                data_points: 1.25e8,
                parallelizability: 0.0,
                streamability: 16.0,
                area: 1000.0, // only 2 of 10 fit in 2400
            };
        }
        let p = Platform::reference();
        let r = nsga2_map(&g, &p, &small_cfg(3));
        assert!(r.mapping.is_area_feasible(&g, &p));
        assert!(r.mapping.count_on(DeviceId(2)) <= 2);
    }

    #[test]
    fn evaluation_budget_matches_generations() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(15, 2));
        augment(&mut g, &AugmentConfig::default(), 2);
        let cfg = small_cfg(4);
        // The reference pays exactly one simulation per fitness call:
        // initial population + offspring per generation.
        let r = nsga2_map_reference(&g, &p, &cfg);
        let expect = (cfg.population * (cfg.generations + 1)) as u64;
        assert_eq!(r.evaluations, expect);
        // The engine never pays more (memoization can only subtract
        // simulations; trail recordings are gated to pay for themselves).
        let e = nsga2_map(&g, &p, &cfg);
        assert!(
            e.evaluations <= expect,
            "engine ran more simulations than the reference: {} > {expect}",
            e.evaluations
        );
        assert_eq!(e.makespan, r.makespan);
    }

    #[test]
    fn request_entry_matches_direct_ga_and_refuses_decomposition() {
        use std::sync::Arc;

        use spmap_core::{Algo, GaParams, MapRequest, MapperError};

        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(22, 6));
        augment(&mut g, &AugmentConfig::default(), 6);
        let cfg = small_cfg(6);
        let direct = nsga2_map(&g, &p, &cfg);
        let req = MapRequest::new(Arc::new(g.clone()), Arc::new(p.clone())).with_algo(Algo::Ga(
            GaParams {
                population: cfg.population,
                generations: cfg.generations,
                crossover_rate: cfg.crossover_rate,
                mutation_rate: cfg.mutation_rate,
                seed: cfg.seed,
            },
        ));
        let via = nsga2_map_request(&req).expect("GA requests route here");
        assert_eq!(via.mapping, direct.mapping);
        assert_eq!(via.makespan, direct.makespan);
        assert_eq!(via.best_per_generation, direct.best_per_generation);

        let decomp = MapRequest::new(Arc::new(g.clone()), Arc::new(p.clone()));
        assert!(matches!(
            nsga2_map_request(&decomp),
            Err(MapperError::UnsupportedAlgo { .. })
        ));

        let mut restricted = req.clone();
        restricted.limits.devices = Some(vec![p.default_device()]);
        assert!(matches!(
            nsga2_map_request(&restricted),
            Err(MapperError::UnsupportedAlgo { .. })
        ));
    }

    #[test]
    fn more_generations_never_hurt() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(25, 9));
        augment(&mut g, &AugmentConfig::default(), 9);
        let short = nsga2_map(
            &g,
            &p,
            &GaConfig {
                population: 24,
                generations: 5,
                seed: 5,
                ..GaConfig::default()
            },
        );
        let long = nsga2_map(
            &g,
            &p,
            &GaConfig {
                population: 24,
                generations: 60,
                seed: 5,
                ..GaConfig::default()
            },
        );
        assert!(long.makespan <= short.makespan + 1e-12);
    }
}
