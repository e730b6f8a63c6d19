//! Error types shared by the numerics substrate.

use std::fmt;

/// Convenience alias for results returned by `flowrank-stats`.
pub type StatsResult<T> = Result<T, StatsError>;

/// Errors produced by the numerics substrate.
///
/// The library never panics on invalid user input: fallible constructors and
/// algorithms return one of these variants instead.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution or function parameter is outside its domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value that was supplied.
        value: f64,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
    /// A root-finding bracket does not actually bracket a sign change.
    InvalidBracket {
        /// Lower end of the bracket.
        lo: f64,
        /// Upper end of the bracket.
        hi: f64,
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Number of iterations that were performed.
        iterations: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(
                f,
                "invalid parameter `{name}` = {value}: must satisfy {constraint}"
            ),
            StatsError::InvalidBracket { lo, hi } => write!(
                f,
                "bracket [{lo}, {hi}] does not bracket a root (no sign change)"
            ),
            StatsError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for StatsError {}

/// Checks that `value` is strictly positive, returning an error otherwise.
pub(crate) fn require_positive(name: &'static str, value: f64) -> StatsResult<()> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter {
            name,
            value,
            constraint: "finite and > 0",
        })
    }
}

/// Checks that `value` is a probability in `[0, 1]`.
pub(crate) fn require_probability(name: &'static str, value: f64) -> StatsResult<()> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter {
            name,
            value,
            constraint: "within [0, 1]",
        })
    }
}

/// Checks that `value` is finite.
pub(crate) fn require_finite(name: &'static str, value: f64) -> StatsResult<()> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter {
            name,
            value,
            constraint: "finite",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_parameter() {
        let err = StatsError::InvalidParameter {
            name: "beta",
            value: -1.0,
            constraint: "> 0",
        };
        let text = err.to_string();
        assert!(text.contains("beta"));
        assert!(text.contains("-1"));
    }

    #[test]
    fn display_other_variants() {
        assert!(StatsError::InvalidBracket { lo: 0.0, hi: 1.0 }
            .to_string()
            .contains("bracket"));
        assert!(StatsError::NoConvergence {
            algorithm: "brent",
            iterations: 100
        }
        .to_string()
        .contains("brent"));
    }

    #[test]
    fn require_positive_accepts_positive() {
        assert!(require_positive("x", 1e-12).is_ok());
        assert!(require_positive("x", 1.0).is_ok());
    }

    #[test]
    fn require_positive_rejects_zero_negative_nan() {
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", -3.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn require_probability_bounds() {
        assert!(require_probability("p", 0.0).is_ok());
        assert!(require_probability("p", 1.0).is_ok());
        assert!(require_probability("p", 0.5).is_ok());
        assert!(require_probability("p", -0.01).is_err());
        assert!(require_probability("p", 1.01).is_err());
        assert!(require_probability("p", f64::NAN).is_err());
    }

    #[test]
    fn require_finite_rejects_nan_inf() {
        assert!(require_finite("x", 3.0).is_ok());
        assert!(require_finite("x", f64::NAN).is_err());
        assert!(require_finite("x", f64::NEG_INFINITY).is_err());
    }
}
