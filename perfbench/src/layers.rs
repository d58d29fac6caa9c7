//! Per-layer metrics of a traced run, named `<crate>.<metric>`.
//!
//! Counts come from the program's own metrics registries and result
//! structs in the first (untraced) pass and repeat exactly; times come from
//! the benchmark's wall spans and its outside-in probes.

use crate::stats::{median, quantile, Metric, Metrics};
use crate::workload::{self, Op, Outcome, Strategy, Workload, ALL_STRATEGIES};
use crate::{probes, Run};
use gmip::problems::MipInstance;
use gmip::serve::ServeReport;
use gmip::trace::names;
use std::time::Instant;

/// Instances the layer probes run on (the first of the workload's own).
const PROBE_INSTANCES: usize = 24;
/// The serve latency limit on the service clock.
const SERVE_LIMIT_MS: f64 = 250.0;
/// The ladder rung the latency and shed figures are read at.
const SERVE_RUNG_US: f64 = 2000.0;

/// `wall.*` keys that time fused dispatches of the native backend.
const WALL_CLASS_KEYS: [&str; 7] = [
    names::WALL_FO_SPMV_T,
    names::WALL_FO_AXPY,
    names::WALL_FO_SPMV,
    names::WALL_FO_NORM,
    names::WALL_PROP_ROUND,
    names::WALL_HEUR_DIVE,
    names::WALL_OTHER,
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Successful outcomes of the reference pass, with their operation and
/// fastest wall seconds.
fn outcomes(run: &Run) -> Vec<(&Op, &Outcome, f64)> {
    let best = run.op_best();
    run.first()
        .results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().ok().map(|o| (&run.prepared.ops[i], o, best[i])))
        .collect()
}

/// Serve reports of the reference pass, by ladder gap.
fn serve_reports(run: &Run) -> Vec<(f64, &ServeReport)> {
    outcomes(run)
        .into_iter()
        .filter_map(|(op, o, _)| match (op, &o.serve) {
            (Op::Replay { gap_us, .. }, Some(r)) => Some((*gap_us, r)),
            _ => None,
        })
        .collect()
}

/// Serve figures on the service clock, read at the 2000 µs rung unless
/// named otherwise.
struct ServeFigures {
    /// Median latency over answered jobs, ms.
    p50: f64,
    /// p99 latency over every submitted job, a shed, refused or failed job
    /// counting as +inf (over any limit), ms.
    p99_all: f64,
    /// p99 latency over answered jobs only, ms.
    p99_answered: f64,
    /// Highest offered rate on the ladder, jobs/s, whose p99 over every job
    /// meets the limit.
    max_rate: f64,
    /// (shed + quota-rejected) / submitted.
    shed: f64,
}

fn serve_figures(run: &Run) -> ServeFigures {
    let reports = serve_reports(run);
    let mut max_rate: f64 = 0.0;
    let (mut p50, mut p99_all, mut p99_answered, mut shed) = (0.0, 0.0, 0.0, 0.0);
    for (gap_us, r) in reports {
        let all: Vec<f64> = r
            .records
            .iter()
            .map(|j| {
                if j.answered() {
                    j.latency_ns() / 1e6
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let p99 = quantile(&all, 0.99);
        if p99 <= SERVE_LIMIT_MS {
            max_rate = max_rate.max(1e6 / gap_us);
        }
        if gap_us == SERVE_RUNG_US {
            p50 = r.latency_quantile_ns(0.5) / 1e6;
            p99_all = p99;
            p99_answered = r.latency_quantile_ns(0.99) / 1e6;
            shed = r.shed_rate();
        }
    }
    ServeFigures {
        p50,
        p99_all,
        p99_answered,
        max_rate,
        shed,
    }
}

/// The serve figures of an untraced run, as `name value unit` lines.
pub fn serve_table(run: &Run) -> String {
    let f = serve_figures(run);
    format!(
        "serve_p50_sim_ms {:.6} ms (answered jobs)\n\
         serve_p99_sim_ms {:.6} ms (every job; shed, refused and failed jobs count as inf)\n\
         serve_p99_answered_sim_ms {:.6} ms (answered jobs only)\n\
         serve_max_rate_jps {:.1} jobs/s (p99 over every job <= {SERVE_LIMIT_MS} ms)\n\
         shed_frac {:.6} ratio\n",
        f.p50, f.p99_all, f.p99_answered, f.max_rate, f.shed
    )
}

/// Per-strategy wall and sim/wall: every strategy family at default
/// settings on the sim backend, over the same two small fixed instances on
/// every workload (knapsack 15, the bundled `assets/knapsack15.mps`, and
/// facility 5×3), so the figures compare across strategies and runs.
fn strategy_sweep(put: &mut impl FnMut(String, f64, &'static str)) {
    let fixed = [
        gmip::problems::generators::knapsack(15, 0.5, 1),
        gmip::problems::generators::facility_location(5, 3, 40.0, 1),
    ];
    for s in ALL_STRATEGIES {
        let (mut wall, mut sim, mut n) = (0.0, 0.0, 0);
        for m in &fixed {
            let t0 = Instant::now();
            let r = std::panic::catch_unwind(|| workload::solve(m, s));
            let dt = t0.elapsed().as_secs_f64();
            if let Ok(Ok(o)) = r {
                wall += dt;
                sim += o.sim_ns / 1e9;
                n += 1;
            }
        }
        put(
            format!("core.solve_ms.{}", s.family()),
            ratio(wall * 1e3, n as f64),
            "ms",
        );
        put(
            format!("core.sim_per_wall.{}", s.family()),
            ratio(sim, wall),
            "ratio",
        );
    }
}

/// Repetitions of each solve in the lane-pool comparison.
const POOL_REPS: usize = 3;

/// Fastest wall seconds, summed, of fo-native's 16-lane solves of
/// knapsack 10, bin packing 5 and gap 3x8 with the lane pool at one thread
/// and at `threads` threads. Each solve runs `POOL_REPS` times at each
/// width, the two widths interleaved, so both sides see the same host and
/// take the same estimator.
fn pool_comparison(run: &Run, threads: usize) -> (f64, f64) {
    let (mut one, mut many) = (0.0, 0.0);
    for &i in &workload::FO_POOL_PROBE {
        let m = &run.prepared.instances[i];
        let (mut best_one, mut best_many) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..POOL_REPS {
            for (t, best) in [(1, &mut best_one), (threads, &mut best_many)] {
                let s = Strategy::FirstOrder {
                    lanes: 16,
                    threads: Some(t),
                };
                let t0 = Instant::now();
                let _ = workload::solve(m, s);
                *best = best.min(t0.elapsed().as_secs_f64());
            }
        }
        one += best_one;
        many += best_many;
    }
    (one, many)
}

pub fn per_layer(run: &Run) -> Result<(Metrics, String), String> {
    let outs = outcomes(run);
    let sum = |k: &str| outs.iter().map(|(_, o, _)| o.reg.counter(k)).sum::<f64>();
    let field = |k: &str| outs.iter().map(|(_, o, _)| o.field(k)).sum::<f64>();
    let pass_wall: f64 = run.op_best().iter().sum();
    let probe: Vec<MipInstance> = run
        .prepared
        .instances
        .iter()
        .take(PROBE_INSTANCES)
        .cloned()
        .collect();

    let mut m = Metrics::new();
    let mut put = |name: String, value: f64, unit: &'static str| {
        m.insert(name, Metric { value, unit });
    };

    // problems
    put(
        "problems.parse_ms".into(),
        probes::parse_ms(&run.inputs.files),
        "ms",
    );

    // linalg
    let (ns_per_nnz, bytes) = probes::spmv(&probe);
    put("linalg.spmv_ns_per_nnz".into(), ns_per_nnz, "ns");
    put("linalg.spmv_bytes_computed".into(), bytes, "bytes");
    let (root_ms, root_iters, us_per_iter, lu_us) = probes::root_lp_and_lu(&probe);
    put("linalg.lu_factor_us".into(), lu_us, "us");

    // lp
    put("lp.root_ms".into(), root_ms, "ms");
    put("lp.root_iterations".into(), root_iters, "count");
    put("lp.us_per_iter".into(), us_per_iter, "us");
    let nodes = field("core.nodes");
    let simplex_iters = sum(names::LP_ITERATIONS);
    put("lp.simplex_iterations".into(), simplex_iters, "count");
    put(
        "lp.iterations_per_node".into(),
        ratio(simplex_iters, nodes),
        "iter/node",
    );
    put(
        "lp.pdhg_iterations".into(),
        sum(names::FO_ITERATIONS),
        "count",
    );
    put(
        "lp.pdhg_iter_limit_lanes".into(),
        sum(names::FO_ITER_LIMIT),
        "count",
    );
    put(
        "lp.pdhg_converged_frac".into(),
        ratio(
            sum(names::FO_CONVERGED),
            sum(names::FO_CONVERGED) + sum(names::FO_ITER_LIMIT),
        ),
        "ratio",
    );
    put("lp.pdhg_restarts".into(), sum(names::FO_RESTARTS), "count");
    put(
        "lp.pdhg_bound_pruned".into(),
        sum(names::FO_BOUND_PRUNED),
        "count",
    );
    put("lp.cleanup_lanes".into(), sum(names::FO_CLEANUPS), "count");
    put(
        "lp.cleanup_iterations".into(),
        sum(names::FO_CLEANUP_ITERS),
        "count",
    );

    // gpu
    let threads = workload::bench_threads();
    put("gpu.dispatch_us_t1".into(), probes::dispatch_us(1), "us");
    put(
        "gpu.dispatch_us_tn".into(),
        probes::dispatch_us(threads),
        "us",
    );
    put(
        "gpu.dispatches".into(),
        sum(names::WALL_DISPATCHES),
        "count",
    );
    let fused_s = WALL_CLASS_KEYS.iter().map(|k| sum(k)).sum::<f64>() / 1e9;
    put("gpu.fused_wall_ms".into(), fused_s * 1e3, "ms");
    put(
        "gpu.fused_share".into(),
        ratio(fused_s, run.first().wall_s()),
        "ratio",
    );
    let speedup = if run.workload == Workload::FoNative {
        let (one, many) = pool_comparison(run, threads);
        ratio(one, many)
    } else {
        0.0
    };
    put("gpu.native_speedup".into(), speedup, "ratio");
    put(
        "gpu.kernel_launches".into(),
        sum(names::GPU_KERNEL_LAUNCHES),
        "count",
    );
    put("gpu.h2d_bytes".into(), sum(names::GPU_H2D_BYTES), "bytes");
    put("gpu.d2h_bytes".into(), sum(names::GPU_D2H_BYTES), "bytes");
    let peak = outs
        .iter()
        .map(|(_, o, _)| {
            o.reg
                .gauge(names::GPU_MEM_PEAK_BYTES)
                .max(o.field("gpu.peak_device_bytes"))
        })
        .fold(0.0, f64::max);
    put("gpu.peak_device_bytes".into(), peak, "bytes");

    // core: node loop and tree
    put("core.nodes".into(), nodes, "count");
    put("core.nodes_per_s".into(), ratio(nodes, pass_wall), "1/s");
    put("core.cuts".into(), sum(names::BB_CUTS_ADDED), "count");
    let supersteps = sum(names::WAVE_SUPERSTEPS) + sum(names::FO_SUPERSTEPS);
    put("core.wave_supersteps".into(), supersteps, "count");
    put(
        "core.wave_retires_per_superstep".into(),
        ratio(
            sum(names::WAVE_RETIRES) + sum(names::FO_RETIRES),
            supersteps,
        ),
        "ratio",
    );
    let firsts: Vec<f64> = outs
        .iter()
        .map(|(_, o, _)| o.reg.gauge(names::HEUR_FIRST_INCUMBENT_NS) / 1e6)
        .filter(|&v| v > 0.0)
        .collect();
    put(
        "core.first_incumbent_sim_ms".into(),
        if firsts.is_empty() {
            0.0
        } else {
            median(&firsts)
        },
        "ms",
    );
    strategy_sweep(&mut put);

    // prop: propagation and the fix-and-propagate dive
    put(
        "prop.root_us".into(),
        probes::propagate_root_us(&probe),
        "us",
    );
    put("prop.rounds".into(), sum(names::PROP_ROUNDS), "count");
    put("prop.nodes".into(), sum(names::PROP_NODES), "count");
    put(
        "prop.infeasible_frac".into(),
        ratio(sum(names::PROP_INFEASIBLE), sum(names::PROP_NODES)),
        "ratio",
    );
    put(
        "prop.tightenings".into(),
        sum(names::PROP_TIGHTENINGS),
        "count",
    );
    put(
        "prop.dive_attempts".into(),
        sum(names::HEUR_ATTEMPTS),
        "count",
    );
    put(
        "prop.dive_incumbents".into(),
        sum(names::HEUR_INCUMBENTS),
        "count",
    );
    put(
        "prop.dive_success_frac".into(),
        ratio(sum(names::HEUR_INCUMBENTS), sum(names::HEUR_ATTEMPTS)),
        "ratio",
    );

    // parallel: cluster messaging (cluster strategies and the serve ranks)
    put(
        "parallel.messages".into(),
        sum(names::CLUSTER_MESSAGES),
        "count",
    );
    put(
        "parallel.message_bytes".into(),
        sum(names::CLUSTER_BYTES),
        "bytes",
    );
    put(
        "parallel.root_messages".into(),
        sum(names::HIER_ROOT_MESSAGES),
        "count",
    );
    put("parallel.steals".into(), sum(names::HIER_STEALS), "count");
    put(
        "parallel.makespan_sim_ms".into(),
        field("parallel.makespan_ns") / 1e6,
        "ms",
    );
    let cluster_wall: f64 = outs
        .iter()
        .filter(|(_, o, _)| o.field("parallel.nodes") > 0.0)
        .map(|(_, _, w)| w)
        .sum();
    put(
        "parallel.wall_us_per_node".into(),
        ratio(cluster_wall * 1e6, field("parallel.nodes")),
        "us",
    );
    put(
        "parallel.fault_recoveries".into(),
        sum(names::RECOVERY_REASSIGNMENTS)
            + sum(names::RECOVERY_RESPAWNS)
            + sum(names::RECOVERY_SUB_RESPAWNS),
        "count",
    );

    // serve
    let replay_walls: Vec<f64> = outs
        .iter()
        .filter(|(op, _, _)| matches!(op, Op::Replay { .. }))
        .map(|(_, _, w)| w * 1e3)
        .collect();
    put(
        "serve.replay_ms".into(),
        if replay_walls.is_empty() {
            0.0
        } else {
            median(&replay_walls)
        },
        "ms",
    );
    put(
        "serve.canonicalize_us".into(),
        probes::canonicalize_us(&probe),
        "us",
    );
    let (exact, warm, miss) = (
        sum(names::SERVE_CACHE_EXACT_HITS),
        sum(names::SERVE_CACHE_WARM_HITS),
        sum(names::SERVE_CACHE_MISSES),
    );
    put("serve.cache_exact".into(), exact, "count");
    put("serve.cache_warm".into(), warm, "count");
    put("serve.cache_miss".into(), miss, "count");
    put(
        "serve.warm_hit_frac".into(),
        ratio(warm, warm + miss),
        "ratio",
    );
    put("serve.shed".into(), sum(names::SERVE_JOBS_SHED), "count");
    put(
        "serve.quota_rejects".into(),
        sum(names::SERVE_JOBS_QUOTA_REJECTS),
        "count",
    );
    put("serve.retries".into(), sum(names::SERVE_RETRIES), "count");
    // The p99 over every job is +inf whenever more than 1% of jobs go
    // unanswered (at the 2000 µs rung about a third are shed), which JSON
    // cannot carry; the per-layer figure is the answered-jobs p99, and
    // `serve.shed_frac` carries the rest.
    let f = serve_figures(run);
    put("serve.p50_sim_ms".into(), f.p50, "ms");
    put("serve.p99_answered_sim_ms".into(), f.p99_answered, "ms");
    put("serve.max_rate_jps".into(), f.max_rate, "jobs/s");
    put("serve.shed_frac".into(), f.shed, "ratio");

    // Self time per layer, per traced pass, from the benchmark's spans.
    let traced: Vec<f64> = run
        .passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| p.wall_s())
        .collect();
    let untraced: Vec<f64> = run
        .passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall_s())
        .collect();
    let self_ms = run.spans.self_ms_by_layer();
    for layer in ["bench", "core", "parallel", "serve"] {
        put(
            format!("{layer}.self_ms"),
            ratio(
                self_ms.get(layer).copied().unwrap_or(0.0),
                traced.len() as f64,
            ),
            "ms",
        );
    }

    // trace
    put(
        "trace.overhead_frac".into(),
        median(&traced) / median(&untraced) - 1.0,
        "ratio",
    );
    let events = run
        .passes
        .iter()
        .find(|p| p.traced)
        .map_or(0, |p| p.trace_events);
    put("trace.events".into(), events as f64, "count");

    let table = format!(
        "# traced passes {}, untraced passes {}\n",
        traced.len(),
        untraced.len()
    );
    Ok((m, table))
}
