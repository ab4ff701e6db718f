//! Order statistics for host-time samples.

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The smallest number of samples at which percentile `p` (0 < p < 1) has
/// at least ten samples beyond it.
pub fn min_samples_for_tail(p: f64) -> usize {
    // The epsilon absorbs binary rounding of `1 - p` (e.g. 1 - 0.9).
    (10.0 / (1.0 - p) - 1e-9).ceil() as usize
}

/// The nearest-rank `p` percentile, reported only when at least ten
/// samples lie beyond it; `None` otherwise.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if samples.len() < min_samples_for_tail(p) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64 - 1e-9).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for_tail(0.99), 1000);
        assert_eq!(min_samples_for_tail(0.9), 100);
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&few, 0.99), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail(&enough, 0.99).expect("1000 samples carry a p99");
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(enough.iter().filter(|&&v| v > p99).count(), 10);
        assert_eq!(tail(&enough[..100], 0.9), Some(89.0));
    }
}
