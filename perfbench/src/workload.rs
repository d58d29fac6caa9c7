//! The three workloads: seeded inputs, set-up, and one timed operation.
//!
//! Inputs are generated from the seed and handed to the program only as
//! MPS text (solves) or as a traffic tape whose instances went through MPS
//! text (serve), so the program sees nothing but the generated inputs.

use gmip::core::{
    plan, solve_batched_wave, solve_first_order_wave, BatchedWaveConfig, FirstOrderWaveConfig,
    MipConfig, MipSolver, MipStatus, Strategy as PlanStrategy,
};
use gmip::gpu::{Accel, BackendKind, CostModel};
use gmip::parallel::{
    solve_hierarchical, solve_parallel, ChaosConfig, HierarchyConfig, ParallelConfig,
};
use gmip::problems::generators as gen;
use gmip::problems::mps::{read_mps, write_mps};
use gmip::problems::MipInstance;
use gmip::serve::{Disposition, JobSpec, ServeConfig, Service, TenantSpec, TrafficConfig};
use gmip::trace::{names, MetricsRegistry};
use gmip::verify::metamorphic::{col_permutation, row_permutation};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BnbSimplex,
    FoNative,
    ServeTape,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::BnbSimplex, Self::FoNative, Self::ServeTape];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::BnbSimplex => "bnb-simplex",
            Self::FoNative => "fo-native",
            Self::ServeTape => "serve-tape",
        }
    }
}

/// Threads the native backend may use: `min(nproc, 4)`.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
        .min(4)
}

/// One solve strategy, as the CLI names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Host,
    CpuOrchestrated,
    GpuOnly,
    Hybrid,
    BigMip(usize),
    Batched(usize),
    Cluster(usize),
    ClusterHier(usize, usize),
    /// Restarted-PDHG lanes with propagation and a dive every 32 nodes;
    /// `threads: None` runs the lanes on the simulator.
    FirstOrder {
        lanes: usize,
        threads: Option<usize>,
    },
}

/// Every simplex strategy at default settings, all on the sim backend.
pub const SIMPLEX_STRATEGIES: [Strategy; 8] = [
    Strategy::Host,
    Strategy::CpuOrchestrated,
    Strategy::GpuOnly,
    Strategy::Hybrid,
    Strategy::BigMip(2),
    Strategy::Batched(64),
    Strategy::Cluster(8),
    Strategy::ClusterHier(16, 4),
];

/// Every strategy family the per-strategy figures cover.
pub const ALL_STRATEGIES: [Strategy; 9] = [
    Strategy::Host,
    Strategy::CpuOrchestrated,
    Strategy::GpuOnly,
    Strategy::Hybrid,
    Strategy::BigMip(2),
    Strategy::Batched(64),
    Strategy::Cluster(8),
    Strategy::ClusterHier(16, 4),
    Strategy::FirstOrder {
        lanes: 16,
        threads: None,
    },
];

impl Strategy {
    /// Strategy family, used in per-strategy metric names.
    pub fn family(self) -> &'static str {
        match self {
            Self::Host => "host",
            Self::CpuOrchestrated => "cpu-orchestrated",
            Self::GpuOnly => "gpu-only",
            Self::Hybrid => "hybrid",
            Self::BigMip(_) => "big-mip",
            Self::Batched(_) => "batched",
            Self::Cluster(_) => "cluster",
            Self::ClusterHier(..) => "cluster-hier",
            Self::FirstOrder { .. } => "firstorder",
        }
    }

    /// The CLI spelling, e.g. `cluster:16x4`.
    pub fn spec(self) -> String {
        match self {
            Self::BigMip(d) => format!("big-mip:{d}"),
            Self::Batched(l) => format!("batched:{l}"),
            Self::Cluster(w) => format!("cluster:{w}"),
            Self::ClusterHier(r, f) => format!("cluster:{r}x{f}"),
            Self::FirstOrder { lanes, .. } => format!("firstorder:{lanes}"),
            other => other.family().to_string(),
        }
    }

    /// True for the strategies that run through `gmip-parallel`.
    pub fn is_cluster(self) -> bool {
        matches!(self, Self::Cluster(_) | Self::ClusterHier(..))
    }
}

/// A generated instance, as the MPS text the program will parse.
#[derive(Debug, Clone)]
pub struct InputFile {
    pub mps: String,
}

/// A tape job whose instance is `files[file]`.
#[derive(Debug, Clone)]
pub struct TapeJob {
    pub id: u64,
    pub tenant: usize,
    pub arrival_ns: f64,
    pub width: usize,
    pub file: usize,
}

/// One rung of the serve ladder.
#[derive(Debug, Clone)]
pub struct TapePlan {
    pub gap_us: f64,
    pub tenants: Vec<TenantSpec>,
    pub jobs: Vec<TapeJob>,
}

/// What one pass runs, before set-up.
#[derive(Debug, Clone)]
pub enum Plan {
    Solves(Vec<(usize, Strategy)>),
    Tapes(Vec<TapePlan>),
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub files: Vec<InputFile>,
    pub plan: Plan,
    /// Solves run once per run, untimed, after the passes: known defects
    /// too slow to repeat every pass. Their answers are checked and counted
    /// like the passes'.
    pub checks: Vec<(usize, Strategy)>,
    /// The operation set-up runs once, untimed, as its warm-up.
    pub warm_op: usize,
}

/// The serve ladder: mean inter-arrival gaps in µs (offered load rises).
const LADDER_GAP_US: [f64; 3] = [4000.0, 2000.0, 1000.0];
/// Jobs per tape.
const TAPE_JOBS: usize = 400;
/// Traffic seed of the serve tapes: arrivals, tenants, sizes, duplicates
/// and perturbations are fixed; the run seed permutes every job's instance
/// and seeds the chaos overlay.
const TAPE_SEED: u64 = 1;

/// bnb-simplex's fixed instances, one per generator family, before the
/// seed permutes them; the last `BNB_DEFECTS` are known defects and are
/// never permuted, so they show at every seed.
pub fn bnb_base() -> Vec<MipInstance> {
    vec![
        gen::knapsack(30, 0.5, 0),
        gen::knapsack(50, 0.5, 0),
        gen::set_cover(40, 60, 0.1, 0),
        gen::generalized_assignment(5, 20, 0),
        gen::unit_commitment(4, 8, 0),
        gen::fixed_charge_flow(10, 20, 8.0, 0),
        gen::facility_location(15, 6, 40.0, 0),
        // With root cuts on, host, cpu-orchestrated, hybrid and big-mip
        // answer Infeasible here although the optimum is 3.
        gen::bin_packing(6, 1.0, 3),
        // host fails with "singular matrix" here after about 20 s, so it
        // is a once-per-run check, not a pass operation.
        gen::bin_packing(7, 1.0, 5),
    ]
}

/// Known-defect instances at the end of `bnb_base`.
const BNB_DEFECTS: usize = 2;

/// fo-native's fixed instances: tiny-body knapsacks (knapsack 15 is the
/// bundled `assets/knapsack15.mps`), nnz-heavy bin packing, and a gap
/// instance whose root lanes run to the PDHG iteration cap.
pub fn fo_base() -> Vec<MipInstance> {
    vec![
        gen::knapsack(10, 0.5, 1),
        gen::knapsack(15, 0.5, 1),
        gen::bin_packing(5, 1.0, 1),
        gen::bin_packing(6, 1.0, 1),
        gen::generalized_assignment(3, 8, 1),
    ]
}

/// fo-native instances (indices into `fo_base`) the traced run solves
/// with the lane pool at one and at `min(nproc, 4)` threads.
pub const FO_POOL_PROBE: [usize; 3] = [0, 2, 4];

/// The fo-native instance set-up warms up on (bin packing 5, the cheapest
/// solve). The seed leaves it unpermuted, so set-up costs the same at
/// every seed.
const FO_WARM: usize = 2;

/// `m` with its rows and then its columns in a seeded order, by the
/// metamorphic permutations of `gmip-verify`. Names, bounds and
/// coefficients are unchanged, so the optimum and the canonical fingerprint
/// are too; the pivot and branching order the solver sees is not.
pub fn permuted(m: &MipInstance, seed: u64) -> MipInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rows = row_permutation(m, &mut rng).instance;
    col_permutation(&rows, &mut rng).instance
}

/// Generates the inputs of `w` from `seed`.
pub fn inputs(w: Workload, seed: u64) -> Inputs {
    match w {
        Workload::BnbSimplex => {
            let base = bnb_base();
            let first_defect = base.len() - BNB_DEFECTS;
            let instances: Vec<MipInstance> = base
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    if k >= first_defect {
                        m.clone()
                    } else {
                        permuted(m, seed.wrapping_mul(64).wrapping_add(k as u64))
                    }
                })
                .collect();
            let last = instances.len() - 1;
            let mut ops = Vec::new();
            for i in 0..last {
                ops.extend(SIMPLEX_STRATEGIES.iter().map(|&s| (i, s)));
            }
            // Warm up on a solve whose cost does not depend on the seed.
            let warm_op = ops
                .iter()
                .position(|&(i, s)| i == first_defect && s == Strategy::Batched(64))
                .expect("the fixed instance runs every strategy");
            Inputs {
                files: to_files(&instances),
                plan: Plan::Solves(ops),
                checks: vec![(last, Strategy::Host)],
                warm_op,
            }
        }
        Workload::FoNative => {
            let instances: Vec<MipInstance> = fo_base()
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    if k == FO_WARM {
                        m.clone()
                    } else {
                        permuted(m, seed.wrapping_mul(64).wrapping_add(k as u64))
                    }
                })
                .collect();
            // One lane thread: on a host with few cores the pool's per-dispatch
            // hand-off between threads is at the mercy of the scheduler (runs
            // at two threads were up to 3x slower when the host was busy), so
            // the gated run uses the inline path and the traced run times
            // the n-thread pool (`gpu.dispatch_us_tn`, `gpu.native_speedup`).
            let threads = Some(1);
            let mut ops = Vec::new();
            for i in 0..instances.len() {
                for lanes in [16, 64] {
                    ops.push((i, Strategy::FirstOrder { lanes, threads }));
                }
            }
            let warm_op = ops
                .iter()
                .position(|&(i, s)| i == FO_WARM && s.spec() == "firstorder:16")
                .expect("every instance runs at 16 lanes");
            Inputs {
                files: to_files(&instances),
                plan: Plan::Solves(ops),
                checks: Vec::new(),
                warm_op,
            }
        }
        Workload::ServeTape => {
            let mut files = Vec::new();
            let mut tapes = Vec::new();
            for gap_us in LADDER_GAP_US {
                let tcfg = TrafficConfig {
                    jobs: TAPE_JOBS,
                    seed: TAPE_SEED,
                    mean_interarrival_ns: gap_us * 1e3,
                    tenants: 3,
                    max_items: 14,
                    dup_prob: 0.15,
                    perturb_prob: 0.15,
                };
                let (tenants, specs) = gmip::serve::generate(&tcfg);
                let jobs = specs
                    .iter()
                    .map(|j| {
                        let job_seed = seed.wrapping_mul(1 << 20).wrapping_add(files.len() as u64);
                        files.push(InputFile {
                            mps: write_mps(&permuted(&j.instance, job_seed)),
                        });
                        TapeJob {
                            id: j.id,
                            tenant: j.tenant,
                            arrival_ns: j.arrival_ns,
                            width: j.width,
                            file: files.len() - 1,
                        }
                    })
                    .collect();
                tapes.push(TapePlan {
                    gap_us,
                    tenants,
                    jobs,
                });
            }
            Inputs {
                files,
                plan: Plan::Tapes(tapes),
                checks: Vec::new(),
                warm_op: 0,
            }
        }
    }
}

fn to_files(instances: &[MipInstance]) -> Vec<InputFile> {
    instances
        .iter()
        .map(|m| InputFile { mps: write_mps(m) })
        .collect()
}

/// One timed operation of a pass.
#[derive(Debug)]
pub enum Op {
    Solve {
        instance: usize,
        strategy: Strategy,
    },
    Replay {
        gap_us: f64,
        tenants: Vec<TenantSpec>,
        jobs: Vec<JobSpec>,
    },
}

/// A workload after set-up: parsed, validated instances and built jobs.
#[derive(Debug)]
pub struct Prepared {
    pub instances: Vec<MipInstance>,
    pub ops: Vec<Op>,
    /// The once-per-run checks.
    pub checks: Vec<Op>,
    /// Serve chaos overlay seed.
    seed: u64,
    warm_op: usize,
}

/// Parses and validates every input and builds the pass's operations.
pub fn prepare(inputs: &Inputs, seed: u64) -> Result<Prepared, String> {
    let instances = inputs
        .files
        .iter()
        .map(|f| {
            let m = read_mps(&f.mps).map_err(|e| format!("MPS parse: {e}"))?;
            m.validate().map_err(|e| format!("{}: {e}", m.name))?;
            Ok(m)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let solves = |list: &[(usize, Strategy)]| {
        list.iter()
            .map(|&(instance, strategy)| Op::Solve { instance, strategy })
            .collect()
    };
    let ops = match &inputs.plan {
        Plan::Solves(list) => solves(list),
        Plan::Tapes(tapes) => tapes
            .iter()
            .map(|t| Op::Replay {
                gap_us: t.gap_us,
                tenants: t.tenants.clone(),
                jobs: t
                    .jobs
                    .iter()
                    .map(|j| JobSpec {
                        id: j.id,
                        tenant: j.tenant,
                        arrival_ns: j.arrival_ns,
                        width: j.width,
                        instance: instances[j.file].clone(),
                    })
                    .collect(),
            })
            .collect(),
    };
    Ok(Prepared {
        instances,
        ops,
        checks: solves(&inputs.checks),
        seed,
        warm_op: inputs.warm_op,
    })
}

/// One answer to check against the oracle.
#[derive(Debug, Clone)]
pub struct Answer {
    pub status: MipStatus,
    pub objective: f64,
    pub x: Option<Vec<f64>>,
}

/// What one operation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Simulated time of the operation (a solve's makespan, a tape's
    /// span on the service clock), ns.
    pub sim_ns: f64,
    /// The program's own metrics registry for the operation (including
    /// any `wall.*` entries of the native backend).
    pub reg: MetricsRegistry,
    /// Counts that live only in result structs.
    pub fields: Vec<(&'static str, f64)>,
    /// Solves: one answer. Replays: one per job, `None` when the job got
    /// no answer (shed, quota-rejected, failed).
    pub answers: Vec<Option<Answer>>,
    /// Serve: per-job records for latency and disposition figures.
    pub serve: Option<gmip::serve::ServeReport>,
}

impl Outcome {
    pub fn field(&self, name: &str) -> f64 {
        self.fields
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Deterministic fingerprint of everything but wall-clock: status,
    /// objective and simulated-time bits plus every count.
    pub fn signature(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("sim={:016x}", self.sim_ns.to_bits());
        for a in &self.answers {
            match a {
                Some(a) => {
                    let _ = write!(s, " {:?}:{:016x}", a.status, a.objective.to_bits());
                }
                None => s.push_str(" -"),
            }
        }
        for (k, v) in self.reg.counters().chain(self.reg.gauges()) {
            if !k.starts_with("wall.") || k == names::WALL_DISPATCHES {
                let _ = write!(s, " {k}={:016x}", v.to_bits());
            }
        }
        for (k, v) in &self.fields {
            let _ = write!(s, " {k}={:016x}", v.to_bits());
        }
        if let Some(r) = &self.serve {
            s.push_str(&r.outcome_digest());
        }
        s
    }
}

/// Device memory per simulated GPU, as the CLI's default of 1 GiB.
const GPU_MEM: usize = 1 << 30;

/// Solves `m` with `strategy` at default settings.
pub fn solve(m: &MipInstance, strategy: Strategy) -> Result<Outcome, String> {
    let cfg = MipConfig::default();
    let err = |e: gmip::lp::LpError| e.to_string();
    let single = |status, objective, x: Vec<f64>, sim_ns, reg, fields| Outcome {
        sim_ns,
        reg,
        fields,
        answers: vec![Some(Answer {
            status,
            objective,
            x: (!x.is_empty()).then_some(x),
        })],
        serve: None,
    };
    Ok(match strategy {
        Strategy::Batched(lanes) => {
            let w = BatchedWaveConfig {
                lanes,
                lp: cfg.lp.clone(),
                ..Default::default()
            };
            let r = solve_batched_wave(m, &w, Accel::gpu(1)).map_err(err)?;
            let fields = wave_fields(r.nodes, r.peak_device_bytes);
            single(r.status, r.objective, r.x, r.makespan_ns, r.metrics, fields)
        }
        Strategy::FirstOrder { lanes, threads } => {
            let w = FirstOrderWaveConfig {
                lanes,
                propagate: true,
                heuristic_period: 32,
                backend: threads
                    .map_or(BackendKind::Sim, |threads| BackendKind::Native { threads }),
                ..Default::default()
            };
            let r = solve_first_order_wave(m, &w, Accel::gpu(1)).map_err(err)?;
            let fields = wave_fields(r.nodes, r.peak_device_bytes);
            single(r.status, r.objective, r.x, r.makespan_ns, r.metrics, fields)
        }
        Strategy::Cluster(workers) => {
            let p = ParallelConfig {
                workers,
                gpu_mem: GPU_MEM,
                ..Default::default()
            };
            let r = solve_parallel(m, p).map_err(err)?;
            let fields = cluster_fields(&r.stats);
            let sim = r.stats.makespan_ns;
            single(r.status, r.objective, r.x, sim, r.stats.metrics, fields)
        }
        Strategy::ClusterHier(workers, fanout) => {
            let p = ParallelConfig {
                workers,
                gpu_mem: GPU_MEM,
                ..Default::default()
            };
            let h = HierarchyConfig {
                fanout,
                ..Default::default()
            };
            let r = solve_hierarchical(m, p, h).map_err(err)?;
            let fields = cluster_fields(&r.stats);
            let sim = r.stats.makespan_ns;
            single(r.status, r.objective, r.x, sim, r.stats.metrics, fields)
        }
        other => {
            let r = if other == Strategy::Host {
                MipSolver::host_baseline(m.clone(), cfg).solve()
            } else {
                let s = match other {
                    Strategy::CpuOrchestrated => PlanStrategy::CpuOrchestrated,
                    Strategy::GpuOnly => PlanStrategy::GpuOnly,
                    Strategy::Hybrid => PlanStrategy::Hybrid,
                    Strategy::BigMip(devices) => PlanStrategy::BigMip { devices },
                    _ => unreachable!("handled above"),
                };
                MipSolver::with_plan(m.clone(), plan(s, cfg, CostModel::gpu_pcie(), GPU_MEM))
                    .solve()
            }
            .map_err(err)?;
            let fields = vec![("core.nodes", r.stats.nodes as f64)];
            let sim = r.stats.sim_time_ns;
            single(r.status, r.objective, r.x, sim, r.stats.metrics, fields)
        }
    })
}

fn wave_fields(nodes: usize, peak: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("core.nodes", nodes as f64),
        ("gpu.peak_device_bytes", peak as f64),
    ]
}

fn cluster_fields(s: &gmip::parallel::ParallelStats) -> Vec<(&'static str, f64)> {
    vec![
        ("core.nodes", s.nodes as f64),
        ("parallel.nodes", s.nodes as f64),
        ("parallel.makespan_ns", s.makespan_ns),
    ]
}

/// Replays one tape through the service: 8 ranks, a `seed=<seed>` chaos
/// overlay, default dup/perturb fractions.
pub fn replay(tenants: &[TenantSpec], jobs: &[JobSpec], seed: u64) -> Result<Outcome, String> {
    let chaos = ChaosConfig::parse(&format!("seed={seed}")).map_err(|e| format!("chaos: {e}"))?;
    let scfg = ServeConfig {
        ranks: 8,
        chaos: Some(chaos),
        ..Default::default()
    };
    let report = Service::new(scfg, tenants.to_vec()).run(jobs.to_vec());
    let answers = report
        .records
        .iter()
        .map(|r| {
            (r.answered() && r.status.is_some()).then(|| Answer {
                status: r.status.expect("checked above"),
                objective: r.objective,
                x: None,
            })
        })
        .collect();
    let nodes: usize = report.records.iter().map(|r| r.nodes).sum();
    let failed = report
        .records
        .iter()
        .filter(|r| r.disposition == Disposition::Failed)
        .count();
    Ok(Outcome {
        sim_ns: report.makespan_ns,
        reg: report.metrics.clone(),
        fields: vec![
            ("core.nodes", nodes as f64),
            ("parallel.nodes", nodes as f64),
            ("serve.failed_jobs", failed as f64),
        ],
        answers,
        serve: Some(report),
    })
}

impl Op {
    /// Attempts the operation stands for: one solve, or every tape job.
    pub fn attempts(&self) -> usize {
        match self {
            Op::Solve { .. } => 1,
            Op::Replay { jobs, .. } => jobs.len(),
        }
    }
}

impl Prepared {
    /// Runs one operation of the pass or one check.
    pub fn run(&self, op: &Op) -> Result<Outcome, String> {
        match op {
            Op::Solve { instance, strategy } => solve(&self.instances[*instance], *strategy),
            Op::Replay { tenants, jobs, .. } => replay(tenants, jobs, self.seed),
        }
    }

    /// The instance answer `k` of `op` must match.
    pub fn instance_of<'a>(&'a self, op: &'a Op, k: usize) -> &'a MipInstance {
        match op {
            Op::Solve { instance, .. } => &self.instances[*instance],
            Op::Replay { jobs, .. } => &jobs[k].instance,
        }
    }

    /// Untimed warm-up before the first timed operation: one solve, or
    /// the first 40 jobs of a tape.
    pub fn warm_up(&self) -> Result<(), String> {
        match &self.ops[self.warm_op] {
            Op::Solve { instance, strategy } => {
                solve(&self.instances[*instance], *strategy).map(drop)
            }
            Op::Replay { tenants, jobs, .. } => {
                replay(tenants, &jobs[..jobs.len().min(40)], self.seed).map(drop)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permuting_keeps_the_canonical_fingerprint() {
        for m in bnb_base().iter().chain(&fo_base()) {
            let p = read_mps(&write_mps(&permuted(m, 5))).unwrap();
            let (a, b) = (gmip::serve::canonicalize(m), gmip::serve::canonicalize(&p));
            assert_eq!(a.exact, b.exact, "{}", m.name);
            assert_eq!(a.obj_scale.to_bits(), b.obj_scale.to_bits(), "{}", m.name);
        }
    }
}
