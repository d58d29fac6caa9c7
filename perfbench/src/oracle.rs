//! Exact-oracle checking of every answer, memoised by instance fingerprint.
//!
//! The oracle runs before any timed work and never inside a timer.

use gmip::core::MipStatus;
use gmip::problems::MipInstance;
use gmip::verify::{check_incumbent, solve_oracle, OracleStatus};
use std::collections::HashMap;

/// The exact optimum of one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Optimal(f64),
    Infeasible,
    Unbounded,
}

/// Optima the exact oracle certified ahead of time for the fixed instances
/// the workloads permute (`workload::bnb_base`, `workload::fo_base`),
/// keyed by canonical fingerprint and objective-scale bits. Row and column
/// permutations keep both, so every seed's variant hits this table instead
/// of paying seconds to minutes of exact search per run. The ignored test
/// `certified_table_matches_the_oracle` re-derives every entry; bin packing
/// 7 is beyond the exact oracle's node budget, and the test certifies it by
/// exact exhaustive search over its packings instead.
const CERTIFIED: &[((u64, u64), Verdict)] = &[
    // knapsack-n30-s0
    (
        (0x5ff8_6597_b02a_ea97, 0x405a_4000_0000_0000),
        Verdict::Optimal(1108.0),
    ),
    // knapsack-n50-s0
    (
        (0xc92b_e469_bf77_ef4b, 0x405c_c000_0000_0000),
        Verdict::Optimal(1847.0),
    ),
    // setcover-40x60-d0.1-s0
    (
        (0xfb55_ba84_5899_4bdd, 0x4024_0000_0000_0000),
        Verdict::Optimal(45.0),
    ),
    // gap-5x20-s0
    (
        (0xf117_f7ce_6e05_7b40, 0x4049_0000_0000_0000),
        Verdict::Optimal(884.0),
    ),
    // ucommit-g4-t8-s0
    (
        (0x6856_d553_9298_cc51, 0x407b_e000_0000_0000),
        Verdict::Optimal(46515.0),
    ),
    // netflow-n10-a30-s0
    (
        (0xe4d7_e5e2_28a0_e78a, 0x4059_0000_0000_0000),
        Verdict::Optimal(216.0),
    ),
    // facility-15x6-s0
    (
        (0x9840_3d66_77e4_4376, 0x4063_4000_0000_0000),
        Verdict::Optimal(765.0),
    ),
    // binpack-i6-s3
    (
        (0x88ac_9581_90dd_e488, 0x3ff0_0000_0000_0000),
        Verdict::Optimal(3.0),
    ),
    // binpack-i7-s5 (exhaustive search; see above)
    (
        (0xa8a8_56ee_f032_610c, 0x3ff0_0000_0000_0000),
        Verdict::Optimal(5.0),
    ),
    // knapsack-n10-s1
    (
        (0x8a32_f8be_943a_4d64, 0x405b_c000_0000_0000),
        Verdict::Optimal(387.0),
    ),
    // knapsack-n15-s1
    (
        (0x99ae_6416_085b_4290, 0x405c_0000_0000_0000),
        Verdict::Optimal(599.0),
    ),
    // binpack-i5-s1
    (
        (0xc210_3503_92c9_997d, 0x3ff0_0000_0000_0000),
        Verdict::Optimal(3.0),
    ),
    // binpack-i6-s1
    (
        (0x9996_62e3_d5d6_9138, 0x3ff0_0000_0000_0000),
        Verdict::Optimal(3.0),
    ),
    // gap-3x8-s1
    (
        (0xbdd2_d548_8f14_abdb, 0x4046_8000_0000_0000),
        Verdict::Optimal(249.0),
    ),
];

/// Memoised exact oracle: identical instances (same canonical fingerprint
/// and objective scale) are certified once per process.
#[derive(Debug, Default)]
pub struct Oracle {
    cache: HashMap<(u64, u64), Verdict>,
}

impl Oracle {
    pub fn certify(&mut self, m: &MipInstance) -> Result<Verdict, String> {
        let canon = gmip::serve::canonicalize(m);
        let key = (canon.exact, canon.obj_scale.to_bits());
        if let Some(v) = self.cache.get(&key) {
            return Ok(*v);
        }
        let v = match CERTIFIED.iter().find(|(k, _)| *k == key) {
            Some((_, v)) => *v,
            None => self.certify_live(m)?,
        };
        self.cache.insert(key, v);
        Ok(v)
    }

    /// Runs the exact oracle on `m`.
    fn certify_live(&self, m: &MipInstance) -> Result<Verdict, String> {
        let r = solve_oracle(m).map_err(|e| format!("{}: oracle failed: {e}", m.name))?;
        let v = match r.status {
            OracleStatus::Optimal => Verdict::Optimal(
                r.objective
                    .as_ref()
                    .map(gmip::verify::Rat::approx)
                    .ok_or("oracle reported Optimal without an objective")?,
            ),
            OracleStatus::Infeasible => Verdict::Infeasible,
            OracleStatus::Unbounded => Verdict::Unbounded,
        };
        Ok(v)
    }
}

/// Objective tolerance, the one `gmip_serve::spot_check` applies.
fn objective_tol(want: f64) -> f64 {
    1e-6 * want.abs().max(1.0)
}

/// Compares one answer with the exact verdict; `x` (when the solver
/// returns a point) is re-checked exactly with `check_incumbent`.
pub fn check(
    m: &MipInstance,
    verdict: Verdict,
    status: MipStatus,
    objective: f64,
    x: Option<&[f64]>,
) -> Result<(), String> {
    match verdict {
        Verdict::Optimal(want) => {
            if status != MipStatus::Optimal {
                return Err(format!("status {status:?}, exact optimum is {want}"));
            }
            // NaN-safe: a NaN objective fails.
            let diff = (objective - want).abs();
            if !matches!(
                diff.partial_cmp(&objective_tol(want)),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ) {
                return Err(format!("objective {objective}, exact optimum is {want}"));
            }
            if let Some(x) = x {
                check_incumbent(m, x, objective, 1e-5).map_err(|e| format!("incumbent: {e}"))?;
            }
            Ok(())
        }
        Verdict::Infeasible if status == MipStatus::Infeasible => Ok(()),
        Verdict::Unbounded if status == MipStatus::Unbounded => Ok(()),
        other => Err(format!("status {status:?}, exact oracle says {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip::problems::generators::knapsack;
    use gmip::verify::Rat;

    #[test]
    fn memoises_and_checks() {
        let m = knapsack(8, 0.5, 1);
        let mut o = Oracle::default();
        let v = o.certify(&m).unwrap();
        assert_eq!(o.certify(&m).unwrap(), v);
        assert_eq!(o.cache.len(), 1);
        let Verdict::Optimal(want) = v else {
            panic!("knapsack is feasible")
        };
        assert!(check(&m, v, MipStatus::Optimal, want, None).is_ok());
        assert!(check(&m, v, MipStatus::Optimal, want - 1.0, None).is_err());
        assert!(check(&m, v, MipStatus::Infeasible, f64::NAN, None).is_err());
    }

    /// Fixed instances whose exact B&B runs out of the oracle's node
    /// budget (the bins of bin packing are interchangeable, so the tree
    /// holds every relabelling of every packing).
    const BEYOND_ORACLE: &[&str] = &["binpack-i7-s5"];

    /// Exact optimum of a `generators::bin_packing` instance: the fewest
    /// bins over every partition of its items, with loads summed in exact
    /// rationals.
    fn bin_packing_optimum(m: &MipInstance) -> f64 {
        fn search(i: usize, sizes: &[Rat], cap: &Rat, loads: &mut Vec<Rat>, best: &mut usize) {
            if loads.len() >= *best {
                return;
            }
            if i == sizes.len() {
                *best = loads.len();
                return;
            }
            for b in 0..loads.len() {
                let load = loads[b].clone() + sizes[i].clone();
                if load <= *cap {
                    let old = std::mem::replace(&mut loads[b], load);
                    search(i + 1, sizes, cap, loads, best);
                    loads[b] = old;
                }
            }
            loads.push(sizes[i].clone());
            search(i + 1, sizes, cap, loads, best);
            loads.pop();
        }
        let exact = |v: f64| Rat::from_f64_exact(v).expect("finite coefficient");
        // Variables are x[i][b] at i * n + b, then y[b] at n * n + b; row
        // `cap0` holds every item's size on bin 0 and -capacity on y[0].
        let n = m
            .cons
            .iter()
            .filter(|c| c.name.starts_with("place"))
            .count();
        let cap0 = m.cons.iter().find(|c| c.name == "cap0").expect("bin 0");
        let mut sizes = vec![exact(0.0); n];
        let mut cap = exact(0.0);
        for &(j, v) in &cap0.coeffs {
            if j < n * n {
                sizes[j / n] = exact(v);
            } else {
                cap = exact(-v);
            }
        }
        let mut best = n + 1;
        search(0, &sizes, &cap, &mut Vec::new(), &mut best);
        best as f64
    }

    #[test]
    #[ignore = "runs the exact oracle on every fixed instance (about a minute)"]
    fn certified_table_matches_the_oracle() {
        let base = crate::workload::bnb_base()
            .into_iter()
            .chain(crate::workload::fo_base());
        let mut missing = Vec::new();
        for m in base {
            let canon = gmip::serve::canonicalize(&m);
            let key = (canon.exact, canon.obj_scale.to_bits());
            let live = if BEYOND_ORACLE.contains(&m.name.as_str()) {
                Verdict::Optimal(bin_packing_optimum(&m))
            } else {
                let v = Oracle::default().certify_live(&m).unwrap();
                if m.name.starts_with("binpack-") {
                    // The search agrees with the oracle where both run.
                    assert_eq!(v, Verdict::Optimal(bin_packing_optimum(&m)), "{}", m.name);
                }
                v
            };
            match CERTIFIED.iter().find(|(k, _)| *k == key) {
                Some((_, v)) => assert_eq!(*v, live, "{}", m.name),
                None => missing.push(format!(
                    "    // {}\n    (({:#x}, {:#x}), Verdict::{:?}),",
                    m.name, key.0, key.1, live
                )),
            }
        }
        assert!(missing.is_empty(), "not certified:\n{}", missing.join("\n"));
    }
}
