//! Small statistics helpers: percentiles under the ten-beyond rule, the
//! random-ranking MRR floor, and ratios that carry their base.

/// Nearest-rank percentile `p` (in percent) of `samples`, which need not be
/// sorted. Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly above the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Expected filtered MRR of a uniformly random ranking over `n` candidates:
/// the true entity lands on each rank with probability `1/n`, so the mean
/// reciprocal rank is `H_n / n`.
pub fn random_mrr(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    harmonic / n as f64
}

/// `part / base`, or 0 when the base is empty. Callers report the base next
/// to the ratio.
pub fn ratio(part: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 20k samples: p99.9 has 20 beyond it.
        assert_eq!(tail_percentile(20_000), Some(99.9));
        // 1,000 samples: p99.9 has 1 beyond, p99 has 10.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        // 110 samples: p95 has 5 beyond, p90 has 11.
        assert_eq!(tail_percentile(110), Some(90.0));
        assert_eq!(tail_percentile(15), None);
        for n in [20, 40, 100, 660, 20_000] {
            let p = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn random_mrr_is_harmonic_over_n() {
        assert_eq!(random_mrr(1), 1.0);
        assert!((random_mrr(2) - 0.75).abs() < 1e-12);
        assert!((random_mrr(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25) / 4.0).abs() < 1e-12);
        // H_n ≈ ln n + γ for large n.
        let n = 100_000;
        let approx = ((n as f64).ln() + 0.577_215_664_9) / n as f64;
        assert!((random_mrr(n) - approx).abs() / approx < 1e-4);
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
