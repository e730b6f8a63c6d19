//! Special functions: log-gamma, error functions, regularised incomplete
//! gamma functions, and log-domain combinatorics.
//!
//! These are the primitives behind every probability computed by the
//! analytical models: binomial masses (log-domain combinatorics), Poisson
//! tails (incomplete gamma), and the Gaussian misranking approximation of
//! Eq. 2 (complementary error function).
//!
//! The implementations follow the classical Lanczos / Numerical-Recipes
//! formulations and are accurate to roughly 1e-13 relative error over the
//! ranges exercised by the models, which is far below the 0.1% misranking
//! targets discussed in the paper.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with g = 7 and 9 coefficients, giving about
/// 15 significant digits for all positive arguments.
///
/// # Panics
///
/// Does not panic; returns `f64::NAN` for `x <= 0` or non-finite input.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    if !x.is_finite() || x <= 0.0 {
        return f64::NAN;
    }
    // Lanczos coefficients for g = 7, n = 9, at full printed precision.
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        return std::f64::consts::PI.ln() - sin_pi_x.ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of `n!`.
///
/// Exact for small `n` (table lookup up to 20), `ln Γ(n+1)` beyond.
pub fn ln_factorial(n: u64) -> f64 {
    // 0! .. 20! fit exactly in f64.
    const TABLE: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5040.0,
        40320.0,
        362880.0,
        3628800.0,
        39916800.0,
        479001600.0,
        6227020800.0,
        87178291200.0,
        1307674368000.0,
        20922789888000.0,
        355687428096000.0,
        6402373705728000.0,
        121645100408832000.0,
        2432902008176640000.0,
    ];
    if (n as usize) < TABLE.len() {
        TABLE[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// The error function `erf(x) = (2/√π) ∫₀ˣ e^{-t²} dt` — the test oracle
/// [`erfc`] is checked against (`erf(x) + erfc(x) = 1`).
#[cfg(test)]
fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs();
    let value = if ax == 0.0 {
        0.0
    } else {
        // erf(x) = P(1/2, x²) for x ≥ 0.
        gamma_p(0.5, ax * ax)
    };
    sign * value
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Computed through the regularised upper incomplete gamma function so the
/// deep tail (`x ≫ 1`) retains full relative accuracy rather than cancelling
/// to zero — the misranking probabilities of Eq. 2 live exactly in that tail
/// once the two flows differ by many packets.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Regularised lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, x)` is the CDF of the Gamma(a, 1) distribution; `P(k+1, λ)` is the
/// complement of the Poisson CDF.
pub(crate) fn gamma_p(a: f64, x: f64) -> f64 {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

/// Regularised upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

/// Series expansion of `P(a, x)` — efficient for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_ga).exp()
}

/// Continued-fraction (modified Lentz) evaluation of `Q(a, x)` — efficient for
/// `x ≥ a + 1`.
fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma(a);
    let cf = upper_gamma_cf(a, x);
    (-x + a * x.ln() - ln_ga).exp() * cf
}

/// The continued-fraction factor of `Q(a, x)` (without the `e^{-x} x^a / Γ(a)`
/// prefactor), evaluated with the modified Lentz algorithm.
fn upper_gamma_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        let diff = (a - b).abs();
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!(
            diff <= tol * scale,
            "expected {a} ≈ {b} (diff {diff}, tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(0.5) = √π
        assert_close(ln_gamma(1.0), 0.0, 1e-14);
        assert_close(ln_gamma(2.0), 0.0, 1e-14);
        assert_close(ln_gamma(3.0), 2.0_f64.ln(), 1e-14);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-13);
        assert_close(ln_gamma(10.0), 362880.0_f64.ln(), 1e-13);
        // Large argument: Γ(171) = 170!, ln(170!) ≈ 706.5730622457874.
        assert_close(ln_gamma(171.0), 706.5730622457874, 1e-12);
        // Recurrence Γ(x+1) = xΓ(x) at a non-integer point.
        assert_close(ln_gamma(10.3), ln_gamma(11.3) - 10.3_f64.ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_reflection_branch() {
        // Γ(0.25) = 3.6256099082219083..., exercised via x < 0.5 branch.
        assert_close(ln_gamma(0.25), 3.625_609_908_221_908_f64.ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_invalid_inputs() {
        assert!(ln_gamma(0.0).is_nan());
        assert!(ln_gamma(-1.0).is_nan());
        assert!(ln_gamma(f64::NAN).is_nan());
    }

    #[test]
    fn ln_factorial_exact_small() {
        assert_close(ln_factorial(0), 0.0, 1e-15);
        assert_close(ln_factorial(5), 120.0_f64.ln(), 1e-15);
        assert_close(ln_factorial(20), 2432902008176640000.0_f64.ln(), 1e-15);
        assert_close(ln_factorial(30), ln_gamma(31.0), 1e-13);
    }

    #[test]
    fn ln_choose_small_cases() {
        assert_close(ln_choose(5, 2).exp(), 10.0, 1e-12);
        assert_close(ln_choose(10, 0).exp(), 1.0, 1e-12);
        assert_close(ln_choose(10, 10).exp(), 1.0, 1e-12);
        assert_close(ln_choose(52, 5).exp(), 2_598_960.0, 1e-10);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-15);
        assert_close(erf(1.0), 0.8427007929497149, 1e-12);
        assert_close(erf(2.0), 0.9953222650189527, 1e-12);
        assert_close(erf(-1.0), -0.8427007929497149, 1e-12);
        assert_close(erf(0.5), 0.5204998778130465, 1e-12);
    }

    #[test]
    fn erfc_known_values() {
        assert_close(erfc(0.0), 1.0, 1e-15);
        assert_close(erfc(1.0), 0.15729920705028513, 1e-12);
        assert_close(erfc(2.0), 0.004677734981047266, 1e-12);
        assert_close(erfc(3.0), 2.209049699858544e-5, 1e-11);
        assert_close(erfc(-1.0), 1.8427007929497148, 1e-12);
    }

    #[test]
    fn erfc_deep_tail_accuracy() {
        // erfc(5) = 1.5374597944280347e-12 — must keep relative accuracy.
        assert_close(erfc(5.0), 1.5374597944280347e-12, 1e-9);
        // erfc(10) = 2.0884875837625447e-45
        assert_close(erfc(10.0), 2.0884875837625447e-45, 1e-9);
    }

    #[test]
    fn erf_erfc_complementarity() {
        for &x in &[0.1, 0.7, 1.3, 2.4, 3.9] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-13);
            assert_close(erf(-x), -erf(x), 1e-13);
        }
    }

    #[test]
    fn gamma_p_q_poisson_identity() {
        // For integer a = k+1, Q(k+1, λ) = P(Poisson(λ) ≤ k).
        // Poisson(2) CDF at k=3 is 0.857123460498547.
        assert_close(gamma_q(4.0, 2.0), 0.857123460498547, 1e-12);
        // P + Q = 1
        for &(a, x) in &[(0.5, 0.3), (2.0, 5.0), (10.0, 3.0), (10.0, 30.0)] {
            assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn gamma_p_edge_cases() {
        assert_eq!(gamma_p(1.0, 0.0), 0.0);
        assert_eq!(gamma_q(1.0, 0.0), 1.0);
        assert!(gamma_p(-1.0, 1.0).is_nan());
        assert!(gamma_q(1.0, -1.0).is_nan());
        // Exponential CDF: P(1, x) = 1 - e^{-x}
        assert_close(gamma_p(1.0, 2.0), 1.0 - (-2.0_f64).exp(), 1e-13);
    }
}
