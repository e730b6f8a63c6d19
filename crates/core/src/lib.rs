//! # flowrank-core
//!
//! Analytical models for **detecting and ranking the largest flows from
//! sampled traffic**, reproducing Barakat, Iannaccone & Diot (INRIA RR-5266 /
//! CoNEXT 2005).
//!
//! The question the models answer: a monitor samples packets independently
//! with probability `p`, classifies the sampled packets into flows and sorts
//! the sampled flows by size — how well does the sampled top-`t` list match
//! the true top-`t` list?
//!
//! * [`pairwise`] — the exact misranking probability of two flows of known
//!   sizes under random packet sampling (Eq. 1 of the paper, Sec. 3), and the
//!   behaviour of its optimum.
//! * [`gaussian`] — the closed-form Gaussian approximation of the misranking
//!   probability (Eq. 2, Sec. 4) and its error against the exact form.
//! * [`optimal`] — the optimal (minimum) sampling rate achieving a target
//!   misranking probability (Sec. 3.2, Figs. 1–2).
//! * [`ranking`] — the general ranking model: expected number of swapped
//!   flow pairs involving a top-`t` flow (Sec. 5, Eq. 3; evaluated in Sec. 6,
//!   Figs. 4–9), in the continuous (Gaussian + integral) form the paper
//!   uses for its numbers.
//! * [`detection`] — the relaxed detection model: swapped pairs across the
//!   top-`t` boundary only (Sec. 7, Figs. 10–11).
//! * [`metrics`] — the *empirical* counterparts of both metrics, computed on
//!   concrete before/after-sampling flow tables (used by the trace-driven
//!   simulations of Sec. 8).
//! * [`scenario`] — the paper's evaluation scenarios (Sprint 5-tuple and /24
//!   prefix parameters) as ready-made configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detection;
pub mod gaussian;
pub mod metrics;
pub mod optimal;
pub mod pairwise;
pub mod ranking;
pub mod scenario;

pub use detection::DetectionModel;
pub use gaussian::misranking_probability_gaussian;
pub use optimal::{optimal_sampling_rate, PairwiseModel};
pub use pairwise::misranking_probability_exact;
pub use ranking::RankingModel;
pub use scenario::Scenario;
