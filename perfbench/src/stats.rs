//! Sample statistics the benchmark reports: medians, nearest-rank
//! percentiles and the rule that says which tail percentile a sample can
//! support.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is the maximum of a handful of samples, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the rule picks from, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// slack keeps `99.9 × 10000 / 100` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median is unsupported.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank `p`-th percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration or rate).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile of `samples`, or an error naming `what` when the
/// sample is too small for [`MIN_BEYOND`] samples to lie beyond it.
pub fn supported_percentile(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return Err(format!(
            "{what}: p{p} needs {MIN_BEYOND} samples beyond it, have {} samples",
            samples.len()
        ));
    }
    Ok(percentile(&sorted(samples.to_vec()), p))
}

/// Median (the mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let s = sorted(samples.to_vec());
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The largest |1 − Σ layers / total| the offline accounting check
/// accepts: what the layers leave out is glue between timed calls, which
/// must stay small against the pipeline.
pub const ACCOUNTING_TOLERANCE: f64 = 0.02;

/// `1 − Σ layers / total`: the share of an end-to-end time no timed layer
/// covers. Fails when it exceeds [`ACCOUNTING_TOLERANCE`] either way (a
/// negative share means layers overlap or were double counted).
pub fn unaccounted_share(total: f64, layers: &[f64]) -> Result<f64, String> {
    if total.is_nan() || total <= 0.0 {
        return Err(format!("end-to-end time {total} is not positive"));
    }
    let share = 1.0 - layers.iter().sum::<f64>() / total;
    if share.abs() > ACCOUNTING_TOLERANCE {
        return Err(format!(
            "layers cover {:.2}% of the end-to-end time; tolerance is ±{:.0}%",
            (1.0 - share) * 100.0,
            ACCOUNTING_TOLERANCE * 100.0
        ));
    }
    Ok(share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn small_samples_support_no_tail() {
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
        assert!(supported_percentile(&[1.0; 20], 99.0, "x").is_err());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 500.0);
        assert_eq!(percentile(&data, 99.0), 990.0);
        assert_eq!(percentile(&data, 100.0), 1000.0);
        assert_eq!(supported_percentile(&data, 99.0, "x"), Ok(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn accounting_accepts_small_gaps_only() {
        let share = unaccounted_share(100.0, &[60.0, 39.0]).unwrap();
        assert!((share - 0.01).abs() < 1e-12);
        assert!(unaccounted_share(100.0, &[60.0, 30.0]).is_err());
        assert!(unaccounted_share(100.0, &[60.0, 45.0]).is_err());
        assert!(unaccounted_share(0.0, &[]).is_err());
    }
}
