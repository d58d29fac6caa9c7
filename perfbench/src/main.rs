//! End-to-end and per-layer benchmark of the gmip workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bnb-simplex --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One client issues operations back to back (a closed loop) for
//! `--seconds` seconds of operation time. Every answer is checked against
//! the exact oracle; every later pass over the inputs must reproduce the
//! first pass's counts and simulated times bit for bit. The gated wall
//! metrics are scaled by the host's measured speed (`hostspeed`).
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is the JSON result. See
//! `perfbench/README.md`.

mod hostspeed;
mod layers;
mod oracle;
mod probes;
mod spans;
mod stats;
mod workload;

use hostspeed::HostSpeed;
use oracle::Oracle;
use spans::Spans;
use stats::{hd_median, quantile, Metric, Metrics};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Op, Outcome, Prepared, Workload};

/// Fewest set-ups a run makes (one precedes every pass); `setup_s` is the
/// fastest, for the reason `Run::op_best` gives.
const MIN_SETUPS: usize = 15;
/// Fewest passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!(
                    "unknown workload `{v}` (bnb-simplex | fo-native | serve-tape)"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One pass over every operation of the workload.
pub struct Pass {
    /// Wall seconds per operation.
    pub walls: Vec<f64>,
    /// Results per operation; only the reference pass keeps them; later
    /// passes drop theirs once they match it, so memory stays flat.
    pub results: Vec<Result<Outcome, String>>,
    pub traced: bool,
    pub trace_events: usize,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    fn signature(&self) -> Vec<String> {
        self.results
            .iter()
            .map(|r| match r {
                Ok(o) => o.signature(),
                Err(e) => format!("error: {e}"),
            })
            .collect()
    }
}

/// The span layer an operation's call lands in.
fn layer_of(op: &Op) -> &'static str {
    match op {
        Op::Solve { strategy, .. } if strategy.is_cluster() => "parallel",
        Op::Solve { .. } => "core",
        Op::Replay { .. } => "serve",
    }
}

fn op_label(op: &Op) -> String {
    match op {
        Op::Solve { strategy, .. } => strategy.spec(),
        Op::Replay { gap_us, .. } => format!("replay:{gap_us}us"),
    }
}

/// Runs every operation once, catching panics so they count as failures.
/// A traced pass records the program's simulated spans (one trace session
/// per operation, so memory holds one operation's events at a time) and
/// the benchmark's wall spans.
pub fn run_pass(p: &Prepared, spans: &mut Spans) -> Pass {
    let traced = spans.enabled();
    let mut trace_events = 0;
    let pass_span = spans.open("bench", "pass");
    let mut walls = Vec::with_capacity(p.ops.len());
    let mut results = Vec::with_capacity(p.ops.len());
    for op in &p.ops {
        let span = spans.open(layer_of(op), op_label(op));
        let t0 = Instant::now();
        let session = traced.then(gmip::trace::TraceSession::start);
        let result = run_caught(p, op);
        trace_events += session.map_or(0, |s| s.finish().len());
        walls.push(t0.elapsed().as_secs_f64());
        spans.close(span);
        results.push(result);
    }
    spans.close(pass_span);
    Pass {
        walls,
        results,
        traced,
        trace_events,
    }
}

/// Runs one operation, a caught panic counting as an error.
fn run_caught(p: &Prepared, op: &Op) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| p.run(op))).unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Checks the results of `ops` against the oracle; returns (attempts,
/// failures).
fn check_results(
    p: &Prepared,
    ops: &[Op],
    results: &[Result<Outcome, String>],
    oracle: &mut Oracle,
) -> Result<(usize, usize), String> {
    let mut attempts = 0;
    let mut failed = 0;
    for (op, r) in ops.iter().zip(results) {
        attempts += op.attempts();
        let label = match op {
            Op::Solve { .. } => format!("{} on {}", op_label(op), p.instance_of(op, 0).name),
            Op::Replay { .. } => op_label(op),
        };
        let o = match r {
            Ok(o) => o,
            Err(e) => {
                eprintln!("FAILED {label}: {e}");
                failed += op.attempts();
                continue;
            }
        };
        failed += o.field("serve.failed_jobs") as usize;
        for (k, answer) in o.answers.iter().enumerate() {
            let Some(a) = answer else { continue };
            let m = p.instance_of(op, k);
            let verdict = oracle.certify(m)?;
            if let Err(e) = oracle::check(m, verdict, a.status, a.objective, a.x.as_deref()) {
                eprintln!("FAILED {} on {}: {e}", op_label(op), m.name);
                failed += 1;
            }
        }
    }
    Ok((attempts, failed))
}

/// Measured results of one benchmark run.
pub struct Run {
    pub workload: Workload,
    pub inputs: workload::Inputs,
    pub prepared: Prepared,
    pub passes: Vec<Pass>,
    /// Fastest set-up, s (unscaled).
    pub setup_s: f64,
    /// The run's host slowness factor (`HostSpeed::factor`).
    pub slowness: f64,
    pub spans: Spans,
    /// Attempts and failures of one pass (every pass repeats the first).
    pub attempts: usize,
    pub failed: usize,
    /// Attempts and failures of the once-per-run checks.
    pub check_attempts: usize,
    pub check_failed: usize,
}

impl Run {
    /// The reference pass: the first untraced one.
    pub fn first(&self) -> &Pass {
        &self.passes[0]
    }

    /// Per operation, its fastest wall seconds over the untraced passes.
    /// Every pass does bit-identical work (the determinism check proves
    /// it), so the fastest pass is the one least disturbed by whatever else
    /// shares the host; the minimum is the steadiest estimate of a
    /// deterministic operation's cost under such noise.
    pub fn op_best(&self) -> Vec<f64> {
        (0..self.prepared.ops.len())
            .map(|i| {
                self.passes
                    .iter()
                    .filter(|p| !p.traced)
                    .map(|p| p.walls[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }
}

/// One set-up: MPS parse + `validate` + building the operations + one
/// untimed warm-up operation. Appends its wall seconds to `times`. A block
/// of host-speed rounds precedes it (and so every pass).
fn set_up(
    inputs: &workload::Inputs,
    seed: u64,
    times: &mut Vec<f64>,
    speed: &mut HostSpeed,
) -> Result<Prepared, String> {
    speed.sample();
    let t0 = Instant::now();
    let p = workload::prepare(inputs, seed)?;
    p.warm_up().map_err(|e| format!("warm-up: {e}"))?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(p)
}

fn run() -> Result<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let inputs = workload::inputs(args.workload, args.seed);

    // Set-up is repeated before every pass, so its samples span the run
    // as the passes do.
    let mut setup = Vec::new();
    let mut speed = HostSpeed::new();
    let mut prepared = set_up(&inputs, args.seed, &mut setup, &mut speed)?;

    // Certify every instance up front so no timer ever covers the oracle.
    let mut oracle = Oracle::default();
    for op in prepared.ops.iter().chain(&prepared.checks) {
        for k in 0..op.attempts() {
            oracle.certify(prepared.instance_of(op, k))?;
        }
    }

    // Closed loop: whole passes until `seconds` of operation time, at least
    // MIN_PASSES; traced runs alternate untraced and traced passes.
    let mut spans_untraced = Spans::new(false);
    let mut spans = Spans::new(args.trace);
    let mut passes: Vec<Pass> = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    let (mut attempts, mut failed) = (0, 0);
    let mut op_time = 0.0;
    while passes.len() < MIN_PASSES || op_time < args.seconds {
        if !passes.is_empty() {
            prepared = set_up(&inputs, args.seed, &mut setup, &mut speed)?;
        }
        let traced = args.trace && passes.len() % 2 == 1;
        let mut pass = run_pass(
            &prepared,
            if traced {
                &mut spans
            } else {
                &mut spans_untraced
            },
        );
        let sig = pass.signature();
        match &reference {
            None => {
                let (a, f) = check_results(&prepared, &prepared.ops, &pass.results, &mut oracle)?;
                attempts = a;
                failed = f;
                reference = Some(sig);
            }
            Some(r) => {
                if let Some(i) = (0..r.len()).find(|&i| r[i] != sig[i]) {
                    return Err(format!(
                        "determinism check failed: pass {} of `{}` differs from pass 0 \
                         in counts or simulated time",
                        passes.len(),
                        op_label(&prepared.ops[i])
                    ));
                }
            }
        }
        op_time += pass.wall_s();
        if !passes.is_empty() {
            pass.results = Vec::new();
        }
        passes.push(pass);
    }
    let once: Vec<_> = prepared
        .checks
        .iter()
        .map(|op| run_caught(&prepared, op))
        .collect();
    let (check_attempts, check_failed) =
        check_results(&prepared, &prepared.checks, &once, &mut oracle)?;
    while setup.len() < MIN_SETUPS {
        prepared = set_up(&inputs, args.seed, &mut setup, &mut speed)?;
    }
    let setup_s = setup.iter().copied().fold(f64::INFINITY, f64::min);
    let n = passes.len();
    // Each distinct operation counts once: every later pass reproduces the
    // first bit for bit or the run stops, so its answers are the first
    // pass's, and the counts do not depend on how many passes fit.
    let (total_attempts, total_failed) = (attempts + check_attempts, failed + check_failed);
    let run = Run {
        workload: args.workload,
        inputs,
        prepared,
        passes,
        setup_s,
        slowness: speed.factor(),
        spans,
        attempts,
        failed,
        check_attempts,
        check_failed,
    };

    let (metrics, table) = if args.trace {
        layers::per_layer(&run)?
    } else {
        end_to_end(&run)?
    };
    let mut out = String::new();
    out.push_str(&format!(
        "# {} seed {} — {} passes; {} operations attempted, {} failed\n",
        args.workload.name(),
        args.seed,
        n,
        total_attempts,
        total_failed
    ));
    out.push_str(&format!(
        "# host slowness {:.4} ({} rounds; round {:.4} ms, reference {:.4} ms)\n",
        run.slowness,
        speed.rounds(),
        run.slowness * hostspeed::REF_ROUND_S * 1e3,
        hostspeed::REF_ROUND_S * 1e3
    ));
    let pass_walls: Vec<String> = run
        .passes
        .iter()
        .map(|p| format!("{:.3}{}", p.wall_s(), if p.traced { "t" } else { "" }))
        .collect();
    out.push_str(&format!("# pass walls (s): {}\n", pass_walls.join(" ")));
    out.push_str(&table);
    for (name, m) in &metrics {
        out.push_str(&format!(
            "{name:<36} {:>16.6} {}\n",
            stats::finite(m.value),
            m.unit
        ));
    }
    if args.trace {
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
        )
        .join("perfbench");
        let path = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, run.spans.to_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.push_str(&format!("# wall spans written to {}\n", path.display()));
    }
    out.push_str(&stats::result_json(
        true,
        total_attempts,
        total_failed,
        &metrics,
    ));
    Ok(out)
}

/// The end-to-end metrics (untraced passes only), plus a table of the
/// figures that do not fit every workload. The wall metrics are divided by
/// the run's host slowness (throughput multiplied); the table prints them
/// unscaled too.
fn end_to_end(run: &Run) -> Result<(Metrics, String), String> {
    let best = run.op_best();
    let attempts_per_pass: usize = run.prepared.ops.iter().map(Op::attempts).sum();
    // Per-solve wall; a tape replay counts as one sample of wall per job.
    let per_op_ms = |walls: &[f64]| -> Vec<f64> {
        walls
            .iter()
            .enumerate()
            .map(|(i, w)| w * 1e3 / run.prepared.ops[i].attempts() as f64)
            .collect()
    };
    let samples: Vec<f64> = run
        .passes
        .iter()
        .filter(|p| !p.traced)
        .flat_map(|p| per_op_ms(&p.walls))
        .collect();
    let sim_ms: f64 = run
        .first()
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| o.sim_ns / 1e6)
        .sum();
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), Metric { value, unit });
    };
    let solves_per_s = attempts_per_pass as f64 / best.iter().sum::<f64>();
    // Each operation's fastest pass, per solve (per job of a tape replay).
    let p50_ms = hd_median(&per_op_ms(&best));
    let k = run.slowness;
    put("solves_per_s", solves_per_s * k, "1/s");
    put("solve_ms_p50", p50_ms / k, "ms");
    put("sim_ms_total", sim_ms, "ms");
    put("setup_s", run.setup_s / k, "s");
    put("peak_rss_mb", stats::peak_rss_mb()?, "MiB");

    let mut table = format!(
        "unscaled: solves_per_s {solves_per_s:.6} 1/s, solve_ms_p50 {p50_ms:.6} ms, setup_s {:.6} s\n",
        run.setup_s
    );
    table.push_str(&format!(
        "failed_frac {:.6} ratio ({} of {} per pass, {} of {} once-per-run checks)\n",
        (run.failed + run.check_failed) as f64 / (run.attempts + run.check_attempts) as f64,
        run.failed,
        run.attempts,
        run.check_failed,
        run.check_attempts
    ));
    let tail_q = (1.0 - 10.0 / samples.len() as f64).max(0.0);
    table.push_str(&format!(
        "solve_ms_p90 {:.6} ms ({} samples, {} beyond); highest percentile with >= 10 beyond: p{:.1} = {:.6} ms\n",
        quantile(&samples, 0.9),
        samples.len(),
        stats::beyond(&samples, 0.9),
        100.0 * tail_q,
        quantile(&samples, tail_q),
    ));
    if run.workload == Workload::ServeTape {
        table.push_str(&layers::serve_table(run));
    }
    Ok((m, table))
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&s(&[
            "--workload",
            "fo-native",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::FoNative);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--seed", "1"])).is_err());
        assert!(parse_args(&s(&["--workload", "bnb-simplex", "--trace", "2"])).is_err());
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for w in Workload::ALL {
            let a = workload::inputs(w, 5);
            let b = workload::inputs(w, 5);
            let c = workload::inputs(w, 6);
            let text =
                |i: &workload::Inputs| i.files.iter().map(|f| f.mps.clone()).collect::<Vec<_>>();
            assert_eq!(text(&a), text(&b));
            assert_ne!(text(&a), text(&c));
        }
    }
}
