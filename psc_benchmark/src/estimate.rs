//! The estimators that make a run repeat on a shared machine.
//!
//! Interference from neighbours is one-sided: it can only make a slice
//! slower, never faster. Every slice does identical work, so the fast tail
//! of the per-slice distribution is the program and the slow tail is the
//! neighbours; the end-to-end figures are therefore a high percentile of
//! per-slice rates and a low percentile of per-slice costs, not means.

/// The `q`-quantile (`0.0..=1.0`) of `values`, interpolating linearly
/// between order statistics.
///
/// # Panics
/// Panics if `values` is empty or holds a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The best-decile figure of a per-slice *rate* (higher is better).
pub fn robust_rate(per_slice: &[f64]) -> f64 {
    quantile(per_slice, 0.9)
}

/// The best-decile figure of a per-slice *cost* (lower is better).
pub fn robust_cost(per_slice: &[f64]) -> f64 {
    quantile(per_slice, 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert_eq!(quantile(&values, 0.125), 1.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    /// One-sided noise — up to 8 of every 10 slices slowed by a neighbour —
    /// leaves the robust figures where they were, while the mean moves.
    #[test]
    fn one_sided_noise_leaves_the_robust_figures_unmoved() {
        let quiet: Vec<f64> = (0..100).map(|i| 1000.0 + (i % 5) as f64).collect();
        for disturbed_of_ten in [2, 5, 8] {
            let noisy: Vec<f64> = quiet
                .iter()
                .enumerate()
                .map(|(i, &rate)| {
                    if i % 10 < disturbed_of_ten {
                        rate * (0.5 + 0.04 * (i % 7) as f64)
                    } else {
                        rate
                    }
                })
                .collect();
            let moved = (robust_rate(&noisy) - robust_rate(&quiet)).abs() / robust_rate(&quiet);
            assert!(
                moved < 0.005,
                "p90 rate moved {moved} at {disturbed_of_ten}/10"
            );
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!((mean(&quiet) - mean(&noisy)) / mean(&quiet) > 0.05);

            let cost = |rates: &[f64]| rates.iter().map(|r| 1e6 / r).collect::<Vec<_>>();
            let (quiet_cost, noisy_cost) = (cost(&quiet), cost(&noisy));
            let moved = (robust_cost(&noisy_cost) - robust_cost(&quiet_cost)).abs()
                / robust_cost(&quiet_cost);
            assert!(
                moved < 0.005,
                "p10 cost moved {moved} at {disturbed_of_ten}/10"
            );
        }
    }
}
