//! Order statistics for latency samples: percentiles, the "ten samples
//! beyond" rule for tail percentiles, and the quartile spread the A/A and
//! paired comparisons are built on.

/// The percentiles a tail may be reported at, lowest first. The median is
/// the floor: a sample too small for any tail percentile reports its p50.
pub const TAIL_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// [`percentile`] over an already sorted, non-empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Number of samples strictly beyond percentile `p` of an `n`-sample set.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it (p50 when none has).
pub fn supported_tail(n: usize) -> u32 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// First quartile, median and third quartile with the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`, which the acceptance
/// check uses. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread every bound is judged against.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(4.0));
        assert_eq!(percentile(&samples, 50.0), Some(2.5));
        assert!((percentile(&samples, 75.0).unwrap() - 3.25).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 leaves exactly ten beyond; 999 leaves nine.
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(supported_tail(1000), 99);
        assert_eq!(supported_tail(999), 95);
        // p95 needs 200, p90 needs 100, p75 needs 40.
        assert_eq!(supported_tail(200), 95);
        assert_eq!(supported_tail(199), 90);
        assert_eq!(supported_tail(100), 90);
        assert_eq!(supported_tail(99), 75);
        assert_eq!(supported_tail(40), 75);
        assert_eq!(supported_tail(39), 50);
        // Too few for any tail: the median is the floor, never a panic.
        assert_eq!(supported_tail(3), 50);
        assert_eq!(supported_tail(0), 50);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&values).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert_eq!((q1, q2, q3), (0.75, 1.5, 2.25));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&values).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0]), Some(0.0));
    }
}
