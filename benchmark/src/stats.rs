//! Order statistics over timing samples.

/// Sorts a copy of the samples (NaN-free by construction: every sample is a
/// measured duration or a ratio of positive counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) of already-sorted samples, linearly
/// interpolated between the two nearest ranks.  0 for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the rule the acceptance driver applies to ten runs, so
/// `--compare` reports the same spread the driver will see.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the *spread* every
/// bound in `BENCHMARK.json` is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Durations in nanoseconds as `f64` samples scaled by `per` (1e3 → µs,
/// 1e6 → ms).
pub fn scaled(ns: &[u64], per: f64) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / per).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
