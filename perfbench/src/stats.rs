//! Order statistics, process memory, and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

/// Median (nearest rank, lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Harrell–Davis median: a weighted mean of the order statistics, sample
/// `i` of `n` (sorted) weighted by the mass a Beta((n+1)/2, (n+1)/2)
/// density puts on `[i/n, (i+1)/n]`. Unlike the sample median it moves
/// smoothly when samples near the middle trade places, so a gap in the
/// middle of the distribution does not make it jump. `NaN` when empty.
pub fn hd_median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let a = (n as f64 + 1.0) / 2.0 - 1.0;
    // Unnormalised density u^a (1-u)^a, integrated by the midpoint rule
    // over each sample's interval.
    const STEPS: usize = 64;
    let mut weights = vec![0.0; n];
    for (i, w) in weights.iter_mut().enumerate() {
        for s in 0..STEPS {
            let u = (i as f64 + (s as f64 + 0.5) / STEPS as f64) / n as f64;
            *w += (a * (4.0 * u * (1.0 - u)).ln()).exp();
        }
    }
    let total: f64 = weights.iter().sum();
    v.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

/// Samples that lie strictly above the nearest-rank `q` quantile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric set, keyed by metric name.
pub type Metrics = BTreeMap<String, Metric>;

/// Renders the JSON result line, the last line of standard output.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            finite(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// JSON has no NaN or infinity; a metric that could not be measured reads
/// 0 (and an empty sum's -0 reads 0 too).
pub fn finite(v: f64) -> f64 {
    if v.is_finite() && v != 0.0 {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn hd_median_is_a_smooth_median() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!((hd_median(&v) - 50.0).abs() < 1e-9);
        assert_eq!(hd_median(&[7.0]), 7.0);
        assert!(hd_median(&[]).is_nan());
        // A gap at the middle: the sample median jumps from 1 to 10 when
        // one sample crosses it; the Harrell–Davis median moves by much less.
        let lo = [1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0];
        let hi = [1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        assert_eq!((median(&lo), median(&hi)), (1.0, 10.0));
        assert!(hd_median(&hi) - hd_median(&lo) < 6.0);
    }

    #[test]
    fn json_keeps_all_digits() {
        let mut m = Metrics::new();
        m.insert(
            "x".into(),
            Metric {
                value: 0.1 + 0.2,
                unit: "ms",
            },
        );
        let line = result_json(true, 3, 1, &m);
        assert!(line.contains("0.30000000000000004"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1"));
    }
}
