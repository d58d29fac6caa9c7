//! Host-speed calibration: a fixed kernel that calls nothing of the
//! program, timed in short blocks through the run.
//!
//! On a shared virtual machine the speed the host gives this process
//! changes in spells of minutes (every operation of a run 1.5–2× slower
//! than a run a minute earlier), which no estimator inside one run can
//! remove. The kernel slows with the program in such a spell, so the gated
//! wall metrics are divided by the run's slowness factor: the kernel's
//! round time over `REF_ROUND_S`. A program change cannot move the kernel,
//! so it moves only the scaled metric, as it would the raw one.

use crate::stats::quantile;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Rows of the kernel's sparse matrix; with its values, indices, vectors
/// and maps the working set is about 500 KB, inside a core's L2.
const ROWS: usize = 4096;
const PER_ROW: usize = 8;
/// Side of the dense matrix the kernel LU-factorises.
const DENSE: usize = 48;
/// Keys the kernel sorts; the first `MAP_KEYS` also fill its hash map.
const KEYS: usize = 4096;
const MAP_KEYS: usize = 1024;
/// Distinct closures the kernel calls through `dyn Fn`.
const CLOSURES: u64 = 64;
/// Rounds in one block; a block precedes every set-up and every pass.
const BLOCK: usize = 24;
/// One round's time on a two-vCPU Xeon virtual machine in a quiet spell
/// (the tenth percentile of its rounds), s. It only sets the scale of the
/// scaled metrics.
pub const REF_ROUND_S: f64 = 1.0e-3;

/// The kernel's fixed inputs and the round times measured so far.
pub struct HostSpeed {
    col: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    dense: Vec<f64>,
    keys: Vec<u64>,
    rounds: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        // xorshift64: fixed inputs, independent of the run seed.
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let nnz = ROWS * PER_ROW;
        HostSpeed {
            col: (0..nnz).map(|_| (next() % ROWS as u64) as u32).collect(),
            val: (0..nnz)
                .map(|_| (next() % 1000) as f64 / 997.0 - 0.5)
                .collect(),
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
            dense: (0..DENSE * DENSE)
                .map(|_| (next() % 1000) as f64 / 991.0 + 0.01)
                .collect(),
            keys: (0..KEYS).map(|_| next()).collect(),
            rounds: Vec::new(),
        }
    }

    /// Times one block of rounds.
    pub fn sample(&mut self) {
        for _ in 0..BLOCK {
            let t0 = Instant::now();
            self.round();
            self.rounds.push(t0.elapsed().as_secs_f64());
        }
    }

    /// The run's slowness factor: the tenth percentile of its round times
    /// over `REF_ROUND_S` (above 1 on a slower host or in a slow spell).
    /// Slow bursts shorter than a pass come and go within a run, as they do
    /// for the operations, whose fastest pass the wall metrics use; a low
    /// percentile follows the host's quiet speed in the same way, where the
    /// median or even the quartile jumped to the slow mode in runs with many
    /// bursts (serve-tape's scaled throughput then rose with the slowness).
    pub fn factor(&self) -> f64 {
        quantile(&self.rounds, 0.1) / REF_ROUND_S
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Sparse matrix-vector products, a dense LU with partial pivoting and
    /// a sort (gathers, flops and branches, as a solver's inner loops have),
    /// then hash-map and B-tree updates, small allocations and indirect
    /// calls (as the service's bookkeeping has). With the first part alone
    /// the slowness overshot `serve-tape`'s slowdown in some spells; with
    /// both, six paired runs per workload in such a spell spread half as
    /// much on `serve-tape` (`solves_per_s` 0.033 against 0.068) and within
    /// 0.002 of it on the other two workloads.
    fn round(&mut self) {
        for _ in 0..8 {
            for r in 0..ROWS {
                let mut acc = 0.0;
                for k in r * PER_ROW..(r + 1) * PER_ROW {
                    acc += self.val[k] * self.x[self.col[k] as usize];
                }
                self.y[r] = acc;
            }
            let norm = self.y.iter().map(|v| v.abs()).sum::<f64>().max(1e-9);
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = 1.0 + y / norm;
            }
        }
        for _ in 0..4 {
            let mut a = self.dense.clone();
            for k in 0..DENSE {
                let p = (k..DENSE)
                    .max_by(|&i, &j| a[i * DENSE + k].abs().total_cmp(&a[j * DENSE + k].abs()))
                    .expect("non-empty range");
                for c in 0..DENSE {
                    a.swap(k * DENSE + c, p * DENSE + c);
                }
                let d = a[k * DENSE + k];
                for i in k + 1..DENSE {
                    let f = a[i * DENSE + k] / d;
                    for c in k..DENSE {
                        a[i * DENSE + c] -= f * a[k * DENSE + c];
                    }
                }
            }
            black_box(&a);
        }
        for _ in 0..4 {
            let mut k = self.keys.clone();
            k.sort_unstable();
            black_box(&k);
        }
        black_box(&self.x);

        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, &k) in self.keys.iter().enumerate().take(MAP_KEYS) {
            map.insert(k, vec![i as u32; 1 + (k % 7) as usize]);
        }
        let mut tree = BTreeMap::new();
        let mut acc = 0u64;
        for &k in self.keys.iter().take(2 * MAP_KEYS) {
            if let Some(v) = map.get(&k) {
                acc = acc.wrapping_add(v.len() as u64);
            }
            tree.insert(k >> 3, acc);
            if k % 3 == 0 {
                tree.remove(&((k >> 3) ^ 1));
            }
        }
        let calls: Vec<Box<dyn Fn(u64) -> u64>> = (0..CLOSURES)
            .map(|j| Box::new(move |x: u64| x.rotate_left(j as u32) ^ j) as Box<dyn Fn(u64) -> u64>)
            .collect();
        for (i, &k) in self.keys.iter().enumerate() {
            acc ^= calls[i % calls.len()](k);
        }
        black_box((acc, tree.len()));
    }
}
