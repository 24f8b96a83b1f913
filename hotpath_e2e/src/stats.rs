//! The benchmark's own arithmetic on samples: medians, quartiles, the
//! percentile picker and the relative spread the repeatability mode gates
//! on.

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean ("midmean"): the mean of what is left after dropping
/// the lowest and the highest quarter of `values`. This is how sub-run
/// values are combined into one end-to-end metric: like the median it
/// ignores up to a quarter of degenerate draws on either side, but where
/// the sub-runs split into a cheap and a dear cluster it moves smoothly
/// with their shares instead of jumping between them, which halves the
/// run-to-run spread on the windowed workloads.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let drop = v.len() / 4;
    let kept = &v[drop..v.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so `--repeat` computes the
/// same spread the acceptance procedure does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        // Position i * (n + 1) / 4 on a 1-based scale, clamped to the data;
        // like Python, the clamped ends extrapolate.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The tail percentile a sample of `n` timings supports: the highest whole
/// percentile, capped at 99, that still leaves at least ten samples beyond
/// it. `None` when even the 50th does not (n < 20).
pub fn supported_tail(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n as u64 * (100 - p as u64) >= 1000)
}

/// Value at whole percentile `p` of `sorted` (ascending): the smallest
/// sample with at least `p` % of the samples at or below it.
pub fn percentile_of_sorted(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as u64 * p as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts `samples` and returns `(p50, tail value, tail percentile, count)`.
/// The tail percentile is [`supported_tail`]; with too few samples for any
/// tail the maximum stands in and the percentile reads 100.
pub fn summarize(samples: &mut [f64]) -> (f64, f64, u32, usize) {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let p50 = percentile_of_sorted(samples, 50);
    match supported_tail(n) {
        Some(p) => (p50, percentile_of_sorted(samples, p), p, n),
        None => (p50, samples.last().copied().unwrap_or(0.0), 100, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(supported_tail(1000), Some(99));
        // 999 samples: p99 would leave 9.99 — fall back to p98.
        assert_eq!(supported_tail(999), Some(98));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(20), Some(50));
        assert_eq!(supported_tail(19), None);
        // Never above p99, however many samples.
        assert_eq!(supported_tail(10_000_000), Some(99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of_sorted(&v, 50), 50.0);
        assert_eq!(percentile_of_sorted(&v, 99), 99.0);
        assert_eq!(percentile_of_sorted(&[7.0], 99), 7.0);
        let mut s: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let (p50, tail, p, n) = summarize(&mut s);
        assert_eq!((p50, tail, p, n), (1000.0, 1980.0, 99, 2000));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn midmean_drops_a_quarter_on_each_side() {
        // 8 values: the two lowest and the two highest go, outliers included.
        let v = [1000.0, 4.0, 5.0, 3.0, 6.0, -50.0, 2.0, 7.0];
        assert_eq!(midmean(&v), (3.0 + 4.0 + 5.0 + 6.0) / 4.0);
        // Fewer than four values: nothing to drop, plain mean.
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&[]), 0.0);
    }
}
