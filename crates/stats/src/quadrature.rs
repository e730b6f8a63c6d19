//! Numerical integration.
//!
//! The continuous ranking and detection models of Secs. 5–7 replace the
//! double sums of Eq. 3 by integrals over the (Pareto) flow-size density,
//! which is what makes the metrics computable "in a few seconds instead of
//! hours" as the paper notes. This module provides the integrators used for
//! that:
//!
//! * [`gauss_legendre_composite`] — the 32-point Gauss–Legendre rule on equal
//!   panels of a finite interval (the inner integrals around `y ≈ x`),
//! * [`integrate_tail`] — semi-infinite integrals `∫ₐ^∞ f`, computed on a
//!   sequence of geometrically growing panels until the contribution becomes
//!   negligible (suited to the power-law tails that dominate here). It is
//!   the one outer integral of both models.

// Published Gauss-Legendre node/weight tables are kept at full printed
// precision even where the nearest f64 differs in the last digit.
#![allow(clippy::excessive_precision)]

/// Nodes and weights of the 32-point Gauss–Legendre rule on `[-1, 1]`
/// (positive half; the rule is symmetric).
const GL32_NODES: [f64; 16] = [
    0.048307665687738316,
    0.144471961582796493,
    0.239287362252137075,
    0.331868602282127650,
    0.421351276130635345,
    0.506899908932229390,
    0.587715757240762329,
    0.663044266930215201,
    0.732182118740289680,
    0.794483795967942407,
    0.849367613732569970,
    0.896321155766052124,
    0.934906075937739689,
    0.964762255587506430,
    0.985611511545268335,
    0.997263861849481564,
];
const GL32_WEIGHTS: [f64; 16] = [
    0.096540088514727801,
    0.095638720079274859,
    0.093844399080804566,
    0.091173878695763885,
    0.087652093004403811,
    0.083311924226946755,
    0.078193895787070306,
    0.072345794108848506,
    0.065822222776361847,
    0.058684093478535547,
    0.050998059262376176,
    0.042835898022226681,
    0.034273862913021433,
    0.025392065309262059,
    0.016274394730905671,
    0.007018610009470097,
];

/// Integrates `f` over `[a, b]` with the 32-point Gauss–Legendre rule.
///
/// Exact for polynomials up to degree 63; for the smooth integrands of the
/// ranking model a single panel is usually enough, and panels can be chained
/// by the caller for better resolution.
pub(crate) fn gauss_legendre<F: Fn(f64) -> f64>(f: F, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let half = 0.5 * (b - a);
    let mid = 0.5 * (a + b);
    let mut acc = 0.0;
    for i in 0..16 {
        let dx = half * GL32_NODES[i];
        acc += GL32_WEIGHTS[i] * (f(mid + dx) + f(mid - dx));
    }
    acc * half
}

/// Integrates `f` over `[a, b]` by splitting the interval into `panels`
/// equal sub-intervals and applying `gauss_legendre` to each.
pub fn gauss_legendre_composite<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, panels: usize) -> f64 {
    if panels == 0 || a == b {
        return 0.0;
    }
    let width = (b - a) / panels as f64;
    (0..panels)
        .map(|i| {
            let lo = a + i as f64 * width;
            gauss_legendre(&f, lo, lo + width)
        })
        .sum()
}

/// Integrates `f` over the semi-infinite interval `[a, ∞)`.
///
/// The tail is covered by panels of geometrically growing width, starting
/// at `max(|a|, 1)` and doubling, each integrated with two Gauss–Legendre
/// panels, until a panel contributes less than `rel_tol` of the running
/// total or the panel budget is exhausted. This matches the power-law and
/// exponential tails that appear in the ranking and detection models.
pub fn integrate_tail<F: Fn(f64) -> f64>(f: F, a: f64, rel_tol: f64, max_panels: usize) -> f64 {
    let mut lo = a;
    let mut total = 0.0;
    // Initial panel width: proportional to |a| for scale-free integrands.
    let mut width = a.abs().max(1.0);
    for _ in 0..max_panels {
        let hi = lo + width;
        let piece = gauss_legendre_composite(&f, lo, hi, 2);
        total += piece;
        if piece.abs() <= rel_tol * total.abs().max(f64::MIN_POSITIVE) && total != 0.0 {
            break;
        }
        lo = hi;
        width *= 2.0;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        let diff = (a - b).abs();
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!(diff <= tol * scale, "expected {a} ≈ {b} (diff {diff})");
    }

    #[test]
    fn gauss_legendre_polynomials_exact() {
        // ∫₀¹ x³ dx = 1/4
        assert_close(gauss_legendre(|x| x * x * x, 0.0, 1.0), 0.25, 1e-14);
        // ∫₋₂³ (5x⁴ − 2x) dx = x⁵ − x² |₋₂³ = (243−9) − (−32−4) = 270
        assert_close(
            gauss_legendre(|x| 5.0 * x.powi(4) - 2.0 * x, -2.0, 3.0),
            270.0,
            1e-12,
        );
        assert_eq!(gauss_legendre(|x| x, 1.0, 1.0), 0.0);
    }

    #[test]
    fn gauss_legendre_transcendental() {
        // ∫₀^π sin x dx = 2
        assert_close(
            gauss_legendre(f64::sin, 0.0, std::f64::consts::PI),
            2.0,
            1e-12,
        );
        // ∫₀¹ e^x dx = e − 1
        assert_close(
            gauss_legendre(f64::exp, 0.0, 1.0),
            std::f64::consts::E - 1.0,
            1e-14,
        );
    }

    #[test]
    fn composite_improves_oscillatory() {
        // ∫₀^{20π} sin²x dx = 10π
        let f = |x: f64| x.sin().powi(2);
        let exact = 10.0 * std::f64::consts::PI;
        let coarse = gauss_legendre(f, 0.0, 20.0 * std::f64::consts::PI);
        let fine = gauss_legendre_composite(f, 0.0, 20.0 * std::f64::consts::PI, 40);
        assert!((fine - exact).abs() < (coarse - exact).abs());
        assert_close(fine, exact, 1e-10);
        assert_eq!(gauss_legendre_composite(f, 0.0, 1.0, 0), 0.0);
    }

    #[test]
    fn tail_integration_exponential() {
        // ∫₂^∞ e^{-x} dx = e^{-2}
        assert_close(
            integrate_tail(|x| (-x).exp(), 2.0, 1e-12, 200),
            (-2.0_f64).exp(),
            1e-10,
        );
    }

    #[test]
    fn tail_integration_power_law() {
        // ∫₁^∞ x^{-2.5} dx = 1/1.5
        assert_close(
            integrate_tail(|x| x.powf(-2.5), 1.0, 1e-12, 300),
            1.0 / 1.5,
            1e-8,
        );
        // Pareto mean: ∫_a^∞ x β a^β x^{-β-1} dx = aβ/(β−1), a = 3.2, β = 1.5.
        let a = 3.2;
        let beta = 1.5;
        assert_close(
            integrate_tail(
                |x| x * beta * a.powf(beta) * x.powf(-beta - 1.0),
                a,
                1e-13,
                400,
            ),
            a * beta / (beta - 1.0),
            1e-6,
        );
    }

    #[test]
    fn tail_integration_from_zero() {
        // ∫₀^∞ e^{-x²/2} dx = √(π/2)
        assert_close(
            integrate_tail(|x| (-(x * x) / 2.0).exp(), 0.0, 1e-13, 100),
            (std::f64::consts::PI / 2.0).sqrt(),
            1e-10,
        );
    }
}
