//! The truncated geometric series of Theorem 1.
//!
//! For `|x| < 1`, `1/(1−x) = Σ_{n≥0} xⁿ`. Truncating after `k` terms gives a
//! posynomial approximation whose relative error is exactly `xᵏ` (for
//! `0 ≤ x < 1`). The paper uses `k = 2` (a linear model) and notes that at
//! `x = 0.25` the error ratio is below 6.3 %, 1.6 %, 0.4 % and 0.1 % for
//! `k = 2, 3, 4, 5`.

/// The exact factor `1 / (1 − x)`.
///
/// # Panics
///
/// Panics if `x ≥ 1` (the wires would collide) or `x` is not finite.
pub fn exact_factor(x: f64) -> f64 {
    assert!(
        x.is_finite() && x < 1.0,
        "exact_factor requires x < 1, got {x}"
    );
    1.0 / (1.0 - x)
}

/// The `k`-term truncation `Σ_{n=0}^{k-1} xⁿ` of the geometric series.
///
/// `k = 0` returns 0; `k = 1` returns 1 (size-independent coupling);
/// `k = 2` is the linear model used throughout the paper.
pub fn truncated_factor(x: f64, k: usize) -> f64 {
    let mut sum = 0.0;
    let mut term = 1.0;
    for _ in 0..k {
        sum += term;
        term *= x;
    }
    sum
}

/// The relative truncation error `(f(x) − f̂(x)) / f(x)`.
///
/// By Theorem 1 of the paper this equals `xᵏ` for `0 ≤ x < 1`.
pub fn truncation_error_ratio(x: f64, k: usize) -> f64 {
    x.powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_converges_to_exact() {
        for &x in &[0.0, 0.1, 0.25, 0.5, 0.9] {
            let exact = exact_factor(x);
            let approx = truncated_factor(x, 400);
            assert!((exact - approx).abs() / exact < 1e-9, "x={x}");
        }
    }

    #[test]
    fn theorem1_error_ratio_is_x_to_the_k() {
        for &x in &[0.05, 0.1, 0.25, 0.5] {
            for k in 1..8 {
                let exact = exact_factor(x);
                let approx = truncated_factor(x, k);
                let measured = (exact - approx) / exact;
                assert!(
                    (measured - truncation_error_ratio(x, k)).abs() < 1e-12,
                    "x={x} k={k}: measured {measured}"
                );
            }
        }
    }

    #[test]
    fn paper_numbers_at_x_quarter() {
        // "for the case x = 0.25, the error ratio is less than 6.3%, 1.6%,
        //  0.4%, and 0.1% when k is 2, 3, 4, and 5 respectively."
        let ratio = |k| truncation_error_ratio(0.25, k);
        assert!(ratio(2) < 0.063 && ratio(2) > 0.06);
        assert!(ratio(3) < 0.016);
        assert!(ratio(4) < 0.004);
        assert!(ratio(5) < 0.001);
    }

    #[test]
    fn k2_is_linear() {
        for &x in &[0.0, 0.2, 0.7] {
            assert!((truncated_factor(x, 2) - (1.0 + x)).abs() < 1e-15);
        }
    }

    #[test]
    fn edge_truncations() {
        assert_eq!(truncated_factor(0.3, 0), 0.0);
        assert_eq!(truncated_factor(0.3, 1), 1.0);
    }

    #[test]
    #[should_panic]
    fn exact_factor_rejects_collision() {
        let _ = exact_factor(1.0);
    }

    #[test]
    fn approximation_underestimates_for_positive_x() {
        // The truncation drops positive terms, so it is always optimistic
        // (never larger than the exact coupling) — the optimizer therefore
        // treats the worst case through the error bound, not by accident.
        for &x in &[0.1, 0.3, 0.6] {
            for k in 1..6 {
                assert!(truncated_factor(x, k) <= exact_factor(x));
            }
        }
    }
}
