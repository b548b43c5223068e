//! Order statistics over timing samples, and the percentile rule: a
//! percentile is reported only when at least ten samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks. Returns `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean (used for counts, whose median would jump
/// between whole numbers). Returns `NaN` for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Whether `n` samples support the `pct`-th percentile: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, pct: u32) -> bool {
    assert!(pct < 100, "percentile must be below 100");
    n * (100 - pct) as usize >= MIN_BEYOND * 100
}

/// The tail percentile actually reported for `n` samples when `pct` is
/// wanted: `pct` itself when supported, else the highest whole percentile
/// the sample supports (`None` below [`MIN_BEYOND`] samples).
pub fn supported_pct(n: usize, pct: u32) -> Option<u32> {
    (1..=pct).rev().find(|&p| supports(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 99));
        assert!(!supports(999, 99));
        assert!(supports(100, 90));
        assert!(!supports(99, 90));
        assert!(supports(20, 50));
        assert!(!supports(19, 50));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(supported_pct(5000, 99), Some(99));
        assert_eq!(supported_pct(500, 99), Some(98));
        assert_eq!(supported_pct(100, 99), Some(90));
        assert_eq!(supported_pct(9, 99), None);
    }
}
