//! Correlation coefficients.
//!
//! Tables 1–4 of the paper report, per data set and amount of side
//! information, the *Pearson correlation* between the internal CVCP scores
//! and the external Overall F-Measure values across the parameter range.

/// Pearson product-moment correlation of two equally long samples.
///
/// Returns `0.0` when either sample has zero variance (a flat curve carries
/// no correlation information — the paper's tables would show blank/low
/// entries there) or when fewer than two points are given.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 1e-24 || syy <= 1e-24 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y_pos = [2.0, 4.0, 6.0, 8.0];
        let y_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y_pos) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_pearson_value() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        // hand-computed: r = 0.8
        assert!((pearson(&x, &y) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_correlation() {
        let x = [1.0, 1.0, 1.0];
        let y = [0.2, 0.5, 0.9];
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(pearson(&y, &x), 0.0);
    }

    #[test]
    fn short_series() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = pearson(&[1.0, 2.0], &[1.0]);
    }

    proptest! {
        #[test]
        fn prop_pearson_bounds_and_symmetry(
            pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..40),
        ) {
            let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = pearson(&x, &y);
            prop_assert!((-1.0..=1.0).contains(&r));
            prop_assert!((pearson(&y, &x) - r).abs() < 1e-9);
            // shift/scale invariance
            let xs: Vec<f64> = x.iter().map(|v| v * 3.0 + 7.0).collect();
            prop_assert!((pearson(&xs, &y) - r).abs() < 1e-6);
        }

        #[test]
        fn prop_self_correlation_is_one(values in proptest::collection::vec(-10.0f64..10.0, 2..30)) {
            // needs non-constant input
            prop_assume!(values.iter().any(|v| (v - values[0]).abs() > 1e-9));
            prop_assert!((pearson(&values, &values) - 1.0).abs() < 1e-9);
        }
    }
}
