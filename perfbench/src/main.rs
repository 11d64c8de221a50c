//! The timed benchmark: one workload, one client, untraced.
//!
//! ```text
//! perfbench --workload <map_cold|map_hot|remap_churn> --seed <n> --seconds <s> --trace 0
//! ```
//!
//! Every item (a distinct request, a remap step or a preparation step)
//! is replayed in interleaved passes, rotating the order each pass; an
//! item's time is its fastest pass.  Every response is checked against
//! an untimed direct reference.  The last stdout line is the result
//! object; `README.md` defines each metric.

use perfbench::{
    churn_scale, context_line, cpu_only_makespan, emit, host_probe_ms, improvement, map_items,
    map_problem, metric, peak_rss_mb, probe_request, quantile, rotation, run_passes, service,
    session_items, timed, Args, Best, Expected, MapItem, Tally, Workload, STEP_KINDS,
};

/// What a workload run measured, before aggregation.
struct Measured {
    latency: Best,
    prep: Best,
    improvement_mean: f64,
    passes: usize,
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        eprintln!("perfbench: the traced run is the `trace` binary");
        std::process::exit(2);
    }
    let probe_start = host_probe_ms();
    let mut tally = Tally::default();
    let m = match args.workload {
        Workload::MapCold | Workload::MapHot => map_workload(&args, &mut tally),
        Workload::RemapChurn => remap_workload(&args, &mut tally),
    };
    let probe_end = host_probe_ms();
    let lat = &m.latency.0;
    let metrics = [
        metric("latency_p50_ms", quantile(lat, 0.5) * 1e3, "ms"),
        metric("latency_p90_ms", quantile(lat, 0.9) * 1e3, "ms"),
        metric("requests_per_s", lat.len() as f64 / m.latency.sum(), "1/s"),
        metric("setup_s", m.prep.sum(), "s"),
        metric("improvement_mean", m.improvement_mean, "ratio"),
        metric("ok_share", tally.ok_share(), "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let context = context_line(&args, m.passes, lat.len(), ("prep_items", m.prep.0.len()));
    emit(&context, (probe_start, probe_end), &tally, &metrics);
}

/// `map_hot` passes per fresh, warmed service: the warm-up costs as much
/// as a pass of hits, so warming every pass would halve the hit samples.
const HOT_PASSES_PER_WARM_UP: usize = 4;

/// `map_cold` and `map_hot`.  Cold: a fresh service per pass maps the
/// probe (preparation), then every item once — all misses.  Hot: every
/// [`HOT_PASSES_PER_WARM_UP`] passes a fresh service requests every item
/// once to warm the cache (preparation, misses); every pass then requests
/// every item again — all hits.
fn map_workload(args: &Args, tally: &mut Tally) -> Measured {
    let items = map_items(args);
    let hot = args.workload == Workload::MapHot;
    let expected: Vec<Expected> = items
        .iter()
        .map(|it| {
            Expected::of_result(&spmap_core::map_request(&it.request).expect("reference maps"))
        })
        .collect();
    let improvement_mean = items
        .iter()
        .zip(&expected)
        .map(|(it, e)| improvement(cpu_only_makespan(&it.request), e.makespan))
        .sum::<f64>()
        / items.len() as f64;
    let probe = MapItem {
        label: "probe".into(),
        request: probe_request(),
    };
    let probe_expected =
        Expected::of_result(&spmap_core::map_request(&probe.request).expect("probe maps"));

    let n = items.len();
    let mut latency = Best::new(n);
    let mut prep = Best::new(if hot { n } else { 1 });
    let mut svc = service();
    let passes = run_passes(args.seconds, |p| {
        if hot {
            if p % HOT_PASSES_PER_WARM_UP == 0 {
                svc = service();
                for j in rotation(n, p) {
                    let (t, r) = timed(|| svc.map(&items[j].request));
                    prep.observe(j, t);
                    tally.record(map_problem("warm-up", &items[j], &expected[j], false, &r));
                }
            }
        } else {
            svc = service();
            let (t, r) = timed(|| svc.map(&probe.request));
            prep.observe(0, t);
            tally.record(map_problem("probe", &probe, &probe_expected, false, &r));
        }
        for j in rotation(n, p + 1) {
            let (t, r) = timed(|| svc.map(&items[j].request));
            latency.observe(j, t);
            tally.record(map_problem("map", &items[j], &expected[j], hot, &r));
        }
    });
    Measured {
        latency,
        prep,
        improvement_mean,
        passes,
    }
}

/// `remap_churn`: a fresh service per pass opens every session
/// (preparation), then replays the cycle step by step, each step across
/// all sessions in rotated order.
fn remap_workload(args: &Args, tally: &mut Tally) -> Measured {
    let (count, tasks) = churn_scale(args.tiny);
    let sessions = session_items(args.seed, count, tasks);
    let steps = STEP_KINDS.len();
    let improvement_mean = sessions
        .iter()
        .flat_map(|s| s.steps.iter().zip(&s.cpu_only))
        .map(|(e, &cpu)| improvement(cpu, e.makespan))
        .sum::<f64>()
        / (count * steps) as f64;

    let mut latency = Best::new(count * steps);
    let mut prep = Best::new(count);
    let passes = run_passes(args.seconds, |p| {
        let svc = service();
        let mut ids = vec![None; count];
        for s in rotation(count, p) {
            let item = &sessions[s];
            let (t, r) = timed(|| svc.open_session(&item.request));
            prep.observe(s, t);
            tally.record(match r {
                Err(e) => Some(format!("open {}: {e}", item.label)),
                Ok(r) => {
                    ids[s] = Some(r.id);
                    (!item.opened.matches_result(&r.result))
                        .then(|| format!("open {}: bits differ from the replica", item.label))
                }
            });
        }
        for k in 0..steps {
            for s in rotation(count, p + k + 1) {
                let item = &sessions[s];
                let Some(id) = ids[s] else { continue };
                let (t, r) = timed(|| svc.remap(id, &item.cycle[k]));
                latency.observe(s * steps + k, t);
                tally.record(match r {
                    Err(e) => Some(format!("step {k} of {}: {e}", item.label)),
                    Ok(o) if !item.steps[k].matches_outcome(&o) => Some(format!(
                        "step {k} of {}: bits differ from the replica",
                        item.label
                    )),
                    Ok(_) => None,
                });
            }
        }
        for id in ids.into_iter().flatten() {
            if let Err(e) = svc.close_session(id) {
                tally.record(Some(format!("close {id}: {e}")));
            }
        }
    });
    Measured {
        latency,
        prep,
        improvement_mean,
        passes,
    }
}
