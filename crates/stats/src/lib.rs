//! # flowrank-stats
//!
//! Numerics substrate for the `flowrank` workspace — the reproduction of
//! *"Ranking flows from sampled traffic"* (Barakat, Iannaccone, Diot, 2004).
//!
//! The analytical models in `flowrank-core` need a small but carefully
//! implemented numerical toolbox:
//!
//! * [`special`] — log-gamma, the complementary error function and the
//!   regularised incomplete gamma functions (used for binomial masses,
//!   Poisson tails and the Gaussian misranking approximation, Eq. 2 of the
//!   paper).
//! * [`dist`] — probability distributions: [`dist::Binomial`] (sampled flow
//!   sizes), [`dist::Pareto`] and [`dist::BoundedPareto`] (flow-size models,
//!   Sec. 6), plus the supporting distributions used by the synthetic trace
//!   generators.
//! * [`rng`] — deterministic, seedable pseudo-random number generators
//!   (SplitMix64, PCG-64). The trace-driven experiments of Sec. 8 average 30
//!   independent sampling runs; explicit seeding makes every figure
//!   reproducible bit-for-bit.
//! * [`quadrature`] — Gauss–Legendre and adaptive Simpson integration,
//!   including semi-infinite integrals, used by the continuous ranking model.
//! * [`roots`] — the bisection root finder behind the
//!   optimal-sampling-rate solver of Sec. 3.2.
//! * [`summary`] — online summary statistics (Welford) used when reporting
//!   the per-bin simulation metrics.
//! * [`rank`] — Kendall's τ and mid-ranks on value vectors, for examples
//!   that compare estimated against true sizes (the paper's swapped-pair
//!   metric itself lives in `flowrank-core::metrics`).
//!
//! The crate has no dependencies and forbids `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod error;
pub mod quadrature;
pub mod rank;
pub mod rng;
pub mod roots;
pub mod special;
pub mod summary;

pub use error::{StatsError, StatsResult};
pub use rng::{Pcg64, Rng, SeedableRng, SplitMix64};
