//! Outside-in layer probes: each one times calls into a single crate's
//! public functions over the workload's own instances.

use crate::stats::median;
use crate::workload::InputFile;
use gmip::gpu::{
    Accelerator, DeviceConfig, GpuDevice, LaneBody, NativeAccelerator, DEFAULT_STREAM,
};
use gmip::linalg::{CsrMatrix, SparseLu};
use gmip::lp::{HostEngine, LpConfig, LpSolver, LpStatus, StandardLp};
use gmip::problems::mps::read_mps;
use gmip::problems::MipInstance;
use gmip::prop::Propagator;
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per timed probe; each figure is a median over them.
const REPS: usize = 5;

fn median_of<F: FnMut()>(mut f: F) -> f64 {
    let mut t = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&t)
}

/// `read_mps` + `validate` over every input file, ms.
pub fn parse_ms(files: &[InputFile]) -> f64 {
    median_of(|| {
        for f in files {
            let m = read_mps(black_box(&f.mps)).expect("inputs parsed during set-up");
            black_box(m.validate().is_ok());
        }
    }) * 1e3
}

/// SpMV with each constraint matrix and its transpose: (ns per nonzero
/// touched, bytes moved by one `A·x` + `Aᵀ·y` sweep over all matrices,
/// computed from nnz, rows and cols).
pub fn spmv(instances: &[MipInstance]) -> (f64, f64) {
    let mats: Vec<CsrMatrix> = instances.iter().map(MipInstance::to_csr).collect();
    let nnz: usize = mats.iter().map(CsrMatrix::nnz).sum();
    // Enough sweeps that one repetition lasts well above timer resolution.
    let sweeps = (2_000_000 / nnz.max(1)).clamp(1, 10_000);
    let secs = median_of(|| {
        for a in &mats {
            let x = vec![1.0; a.cols()];
            let y = vec![1.0; a.rows()];
            let mut ax = vec![0.0; a.rows()];
            let mut aty = vec![0.0; a.cols()];
            for _ in 0..sweeps {
                a.matvec_into(black_box(&x), &mut ax).expect("shapes match");
                a.matvec_transposed_into(black_box(&y), &mut aty)
                    .expect("shapes match");
                black_box((&ax, &aty));
            }
        }
    });
    // Per product: values (8 B) + column indices (8 B) per nonzero, row
    // pointers, the dense input read and the dense output written.
    let bytes: usize = mats
        .iter()
        .map(|a| 2 * (16 * a.nnz() + 8 * (a.rows() + 1) + 8 * (a.rows() + a.cols())))
        .sum();
    (secs * 1e9 / (2 * nnz * sweeps) as f64, bytes as f64)
}

/// Root relaxations: a cold host `LpSolver::solve` of each, then
/// `SparseLu::factorize` + `solve` on its optimal basis. Returns
/// (root ms per instance, root iterations in total, µs per iteration,
/// LU factor+solve µs per instance).
pub fn root_lp_and_lu(instances: &[MipInstance]) -> (f64, f64, f64, f64) {
    let mut lp_secs = Vec::new();
    let mut lu_secs = Vec::new();
    let mut iterations = 0usize;
    for m in instances {
        let mut solver = None;
        lp_secs.push(median_of(|| {
            let mut s = LpSolver::new(
                StandardLp::from_instance(m, &[]),
                LpConfig::standard(),
                |a| HostEngine::new(a.clone()),
            );
            let sol = s.solve();
            solver = Some((s, sol));
        }));
        let Some((s, Ok(sol))) = solver else { continue };
        iterations += sol.iterations;
        let (LpStatus::Optimal, Some(basis)) = (sol.status, s.basis()) else {
            continue;
        };
        let b = CsrMatrix::from_dense(s.matrix())
            .to_csc()
            .select_columns(&basis.cols)
            .expect("basis columns exist");
        let rhs = vec![1.0; b.rows()];
        lu_secs.push(median_of(|| {
            if let Ok(lu) = SparseLu::factorize(black_box(&b)) {
                black_box(lu.solve(&rhs).ok());
            }
        }));
    }
    let lp_total: f64 = lp_secs.iter().sum();
    let per = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (
        per(&lp_secs) * 1e3,
        iterations as f64,
        lp_total * 1e6 / iterations.max(1) as f64,
        per(&lu_secs) * 1e6,
    )
}

/// `Propagator::propagate` at each instance's root box, µs per instance.
pub fn propagate_root_us(instances: &[MipInstance]) -> f64 {
    let props: Vec<Propagator> = instances.iter().map(Propagator::new).collect();
    median_of(|| {
        for p in &props {
            let (mut lb, mut ub) = p.node_box(&[]);
            black_box(p.propagate(&mut lb, &mut ub, 8));
        }
    }) * 1e6
        / props.len().max(1) as f64
}

/// Median round trip of `NativeAccelerator::fused_dispatch` with 64
/// trivial lane bodies, µs.
pub fn dispatch_us(threads: usize) -> f64 {
    const DISPATCHES: usize = 2000;
    let dev = Arc::new(Mutex::new(GpuDevice::new(DeviceConfig::gpu(1))));
    let acc = NativeAccelerator::new(dev, threads);
    let mut hits = [0u64; 64];
    let mut times = Vec::with_capacity(DISPATCHES);
    for _ in 0..DISPATCHES {
        let mut bodies: Vec<_> = hits
            .iter_mut()
            .map(|h| move || *h = black_box(*h + 1))
            .collect();
        let mut refs: Vec<LaneBody<'_>> = bodies.iter_mut().map(|b| b as LaneBody<'_>).collect();
        let t0 = Instant::now();
        acc.fused_dispatch("bench.noop", &mut refs, &[], DEFAULT_STREAM);
        times.push(t0.elapsed().as_secs_f64());
    }
    assert!(
        hits.iter().all(|&h| h == DISPATCHES as u64),
        "every body runs once per dispatch"
    );
    median(&times) * 1e6
}

/// `canonicalize` per instance, µs.
pub fn canonicalize_us(instances: &[MipInstance]) -> f64 {
    median_of(|| {
        for m in instances {
            black_box(gmip::serve::canonicalize(black_box(m)).exact);
        }
    }) * 1e6
        / instances.len().max(1) as f64
}
