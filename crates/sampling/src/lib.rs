//! # flowrank-sampling
//!
//! Packet- and flow-sampling strategies, plus the inversion estimators that
//! turn sampled counters back into estimates of the original traffic.
//!
//! The paper studies *random packet sampling* — every packet is kept
//! independently with probability `p` — because that is what production
//! monitors implement (NetFlow-style 1-in-N or probabilistic sampling), and
//! shows that periodic and random sampling behave alike on high-speed links.
//! This crate implements that sampler along with the alternatives the paper
//! discusses or cites, so experiments can compare them:
//!
//! * [`random`] — independent Bernoulli(p) packet sampling (the paper's
//!   model), implemented in skip-based form: the gap to the next retained
//!   packet is drawn from the geometric distribution, so cost scales with
//!   the packets *kept* instead of the packets offered.
//! * [`periodic`] — deterministic 1-in-N packet sampling (what routers ship),
//!   with a skip-based batch path that is pure counter arithmetic.
//! * [`stratified`] — one uniformly chosen packet per stratum of N packets,
//!   skipping whole strata in batch form.
//! * [`flow_sampling`] — whole-flow sampling (reference \[8\]/\[11\] discussion in
//!   Sec. 1): if a flow is sampled, all of its packets are kept.
//! * [`smart`] — size-dependent sampling ("smart sampling", Duffield–Lund),
//!   carried from flow records to packets by [`smart::SmartPacketSampler`],
//!   the adaptation the streaming monitor uses.
//! * [`adaptive`] — an adaptive-rate packet sampler that tracks a packet
//!   budget per interval (the paper's third future-work direction).
//! * [`inversion`] — estimators of original-traffic quantities from sampled
//!   data (scale-by-1/p, flow counts, mean flow size).
//! * [`seqno`] — TCP sequence-number flow-size estimator (the paper's second
//!   future-work direction).
//! * [`pipeline`] — sampling pipelines without intermediate copies: the
//!   single-pass [`pipeline::sample_and_classify`] table builder and the
//!   batch-driven [`pipeline::SamplerStage`] that the streaming `Monitor`
//!   builds its lanes from.
//!
//! Every sampler implements the object-safe [`PacketSampler`] trait, so a
//! monitor can select its sampling discipline at run time
//! (`Box<dyn PacketSampler>`) without monomorphising the whole pipeline per
//! sampler; blanket impls forward through `Box` and `&mut`. The trait's
//! batched entry point ([`PacketSampler::keep_batch`]) shares each
//! sampler's state with the per-packet path, so cutting a stream into
//! batches of any size never changes the decisions — the contract the
//! streaming monitor's chunking invariance (one record per batch or a whole
//! trace, the same reports) rides on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod flow_sampling;
pub mod inversion;
pub mod periodic;
pub mod pipeline;
pub mod random;
pub mod sampler;
pub mod seqno;
pub mod smart;
pub mod stratified;

pub use adaptive::AdaptiveRateSampler;
pub use flow_sampling::FlowSampler;
pub use periodic::PeriodicSampler;
pub use pipeline::{sample_and_classify, SamplerStage};
pub use random::RandomSampler;
pub use sampler::PacketSampler;
pub use smart::SmartPacketSampler;
pub use stratified::StratifiedSampler;
