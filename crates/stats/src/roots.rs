//! Bracketing root finders.
//!
//! Section 3.2 of the paper defines the *optimal sampling rate* `p_d` as the
//! solution of `Pm(S1, S2; p) = Pm,d`: because the misranking probability is
//! monotone in `p`, a bracketing method on `[0, 1]` finds it reliably. The
//! same machinery answers "what sampling rate keeps the ranking metric below
//! one?" for the general model.

use crate::error::{StatsError, StatsResult};

/// Outcome of a successful root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Root {
    /// Abscissa of the root.
    pub x: f64,
    /// Function value at `x` (should be close to zero).
    pub f_x: f64,
    /// Number of function evaluations used.
    pub evaluations: usize,
}

/// Finds a root of `f` in `[lo, hi]` by bisection.
///
/// Requires `f(lo)` and `f(hi)` to have opposite signs. Converges linearly
/// but unconditionally; `tol` is the absolute width of the final bracket.
// `evals` counts function evaluations (including the bracket endpoints),
// not loop iterations, so it is not a loop counter.
#[allow(clippy::explicit_counter_loop)]
pub(crate) fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> StatsResult<Root> {
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let fb = f(b);
    let mut evals = 2;
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            f_x: 0.0,
            evaluations: evals,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            f_x: 0.0,
            evaluations: evals,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(StatsError::InvalidBracket { lo, hi });
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        evals += 1;
        if fm == 0.0 || (b - a).abs() < tol {
            return Ok(Root {
                x: mid,
                f_x: fm,
                evaluations: evals,
            });
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Err(StatsError::NoConvergence {
        algorithm: "bisection",
        iterations: max_iter,
    })
}

/// Finds the smallest `x` in `[lo, hi]` at which the non-increasing function
/// `f` drops to or below `target`, by bisection on `g(x) = f(x) − target`.
///
/// This is the exact shape of the optimal-sampling-rate search: the
/// misranking probability decreases monotonically in `p`, and we want the
/// smallest `p` that achieves the target. Returns `hi` if even `f(hi)` is
/// above the target and `lo` if `f(lo)` is already below it.
pub fn monotone_threshold<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    target: f64,
    tol: f64,
    max_iter: usize,
) -> StatsResult<f64> {
    let f_lo = f(lo);
    if f_lo <= target {
        return Ok(lo);
    }
    let f_hi = f(hi);
    if f_hi > target {
        return Ok(hi);
    }
    let root = bisect(|x| f(x) - target, lo, hi, tol, max_iter)?;
    Ok(root.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {a} ≈ {b}");
    }

    #[test]
    fn bisect_finds_simple_roots() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert_close(r.x, std::f64::consts::SQRT_2, 1e-10);
        let r = bisect(|x| x.cos(), 0.0, 2.0, 1e-12, 200).unwrap();
        assert_close(r.x, std::f64::consts::FRAC_PI_2, 1e-10);
    }

    #[test]
    fn bisect_exact_endpoint() {
        let r = bisect(|x| x - 1.0, 1.0, 3.0, 1e-12, 100).unwrap();
        assert_eq!(r.x, 1.0);
        let r = bisect(|x| x - 3.0, 1.0, 3.0, 1e-12, 100).unwrap();
        assert_eq!(r.x, 3.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, StatsError::InvalidBracket { .. }));
    }

    #[test]
    fn monotone_threshold_typical() {
        // f(p) = 1/p decreasing; smallest p with f(p) <= 10 is 0.1.
        let p = monotone_threshold(|p| 1.0 / p, 1e-4, 1.0, 10.0, 1e-10, 200).unwrap();
        assert_close(p, 0.1, 1e-8);
    }

    #[test]
    fn monotone_threshold_saturations() {
        // Already below target at lo.
        let p = monotone_threshold(|p| 1.0 / p, 0.5, 1.0, 10.0, 1e-10, 100).unwrap();
        assert_eq!(p, 0.5);
        // Never reaches target: return hi.
        let p = monotone_threshold(|p| 1.0 / p, 1e-4, 1e-3, 10.0, 1e-10, 100).unwrap();
        assert_eq!(p, 1e-3);
    }
}
