//! # flowrank-control
//!
//! Closed-loop sampling-rate control: the paper's optimal-rate model
//! (`core::optimal`) turned into an **online per-bin controller**.
//!
//! The paper computes the sampling rate that keeps the misranking
//! probability of a flow pair below a target — but only *offline*, from
//! known flow sizes. Its named future-work direction is "adaptive schemes
//! that set the sampling rate based on the characteristics of the observed
//! traffic". This crate is that feedback loop at the monitor level:
//!
//! ```text
//!   packets ──▶ Monitor ──▶ BinReport ──▶ BinObservation ──▶ RateController
//!                  ▲                                              │
//!                  └────────── lane rate retuned ◀── RateDecision ┘
//! ```
//!
//! A [`RateController`] observes one [`BinObservation`] per closed
//! measurement bin — realized ranking accuracy, top-k churn, kept-packet
//! volume and the bin's true top flow sizes — and emits a [`RateDecision`]:
//! the sampling rate the controlled lane should run during the *next* bin.
//! Three controllers ship:
//!
//! * [`ModelDriven`] — inverts the paper's
//!   [`optimal_sampling_rate`](flowrank_core::optimal_sampling_rate) on the
//!   bin's observed top-t flow sizes to hit a target misranking
//!   probability (certainty-equivalent control: last bin's sizes predict
//!   the next bin's).
//! * [`AimdSlo`] — additive-increase / multiplicative-decrease on a
//!   swapped-pair-fraction SLO, with a hysteresis band and rate bounds.
//! * [`BudgetTracking`] — the multiplicative budget update of
//!   `flowrank-sampling`'s `AdaptiveRateSampler`, generalised from a
//!   sampler-local packet counter to the monitor-level report stream.
//!
//! # Determinism contract
//!
//! Controller state is a **pure function of the observation stream**: no
//! clocks, no RNG, no iteration over unordered containers. Feeding the same
//! sequence of [`BinObservation`]s to a freshly built controller always
//! produces the same sequence of [`RateDecision`]s, bit for bit, on every
//! platform. The monitor preserves this end to end: observations are
//! derived from the bin's `BinReport` and ground-truth ranking (both
//! already bit-identical across one-record, whole, chunked and sharded
//! execution paths under pinned seeds), and the controlled lane's sampler
//! is rebuilt from its fixed per-lane seed at every retune — so a whole
//! controlled measurement, decisions included, is reproducible from
//! `(trace seed, monitor seed, ControllerSpec)` alone. The
//! `controller_convergence` golden digests in `flowrank-tests` pin exactly
//! this: the full decision trace of every controller over the
//! non-stationary scenario workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aimd;
pub mod budget;
pub mod controller;
pub mod model_driven;
pub mod observation;

pub use aimd::AimdSlo;
pub use budget::BudgetTracking;
pub use controller::{ControllerSpec, RateController};
pub use model_driven::{optimal_rate_for_sizes, ModelDriven};
pub use observation::{BinObservation, RateDecision};
