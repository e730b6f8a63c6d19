//! # flowrank-topk
//!
//! Heavy-hitter / top-k flow-memory algorithms.
//!
//! The related-work section of the paper (Sec. 2) surveys mechanisms that
//! rank the largest flows *under memory constraints* — maintaining a small
//! sorted list (Jedwab, Phaal & Pinna, HP Labs 1992, reference \[13\]) or the
//! sample-and-hold / multistage-filter techniques of Estan & Varghese
//! (reference \[11\]) — and its first future-work direction is to feed *sampled*
//! traffic into those mechanisms. This crate implements them so that a
//! monitor lane ([`TopKTracker`] behind `TopKSpec`) can run exactly that
//! experiment:
//!
//! * [`exact`] — unbounded exact counting (the ground truth the paper uses).
//! * [`sorted_list`] — bounded sorted list with bottom eviction (\[13\]).
//! * [`sample_and_hold`] — Estan–Varghese sample-and-hold (\[11\]).
//! * [`multistage`] — Estan–Varghese parallel multistage filter (\[11\]).
//! * [`space_saving`] — the Space-Saving algorithm (Metwally et al. 2005), a
//!   later baseline included as an extension because it strictly dominates
//!   the bounded sorted list on the same memory budget.
//!
//! All trackers implement the [`TopKTracker`] trait: they are driven
//! packet-by-packet (flow key + increment) and report an estimated top-`t`
//! list at the end of the measurement interval.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod multistage;
pub mod sample_and_hold;
pub mod sorted_list;
pub mod space_saving;
pub mod tracker;

pub use exact::ExactTopK;
pub use multistage::MultistageFilter;
pub use sample_and_hold::SampleAndHold;
pub use sorted_list::SortedListMemory;
pub use space_saving::SpaceSaving;
pub use tracker::{TopKEntry, TopKTracker};
