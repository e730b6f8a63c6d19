//! # flowrank-trace
//!
//! Synthetic traffic-trace models for the `flowrank` workspace.
//!
//! The paper validates its analytical models with trace-driven simulations on
//! two traces that are not publicly redistributable:
//!
//! * a 30-minute **Sprint** OC-12 backbone flow-level trace (Sec. 8.1–8.2) —
//!   the paper itself only uses the per-flow size, duration and start time and
//!   re-synthesises packet arrivals uniformly over each flow's lifetime;
//! * a 30-minute **Abilene-I** OC-48 packet trace from NLANR (Sec. 8.3),
//!   characterised by more flows, higher utilisation and a short-tailed
//!   flow-size distribution.
//!
//! This crate builds the closest synthetic equivalents from the published
//! parameters (flow arrival rate, mean flow size, mean duration, Pareto
//! shape) so the same code path — flow-level records → packet-level trace →
//! sampling → ranking — can be exercised end to end:
//!
//! * [`flow_record`] — the flow-level record (size, duration, start time,
//!   5-tuple).
//! * `arrivals` — the Poisson flow-arrival process.
//! * [`addressing`] — 5-tuple/prefix assignment with Zipf prefix popularity so
//!   that /24 aggregation produces fewer, larger flows as in the paper.
//! * [`sprint`] — the Sprint-backbone-like flow-level model.
//! * [`abilene`] — the Abilene-like short-tailed model.
//! * [`stream`] — the expansion of flow records into packets (uniform
//!   packet placement over the flow lifetime, Sec. 8.1): a
//!   [`SynthesisStream`] yields the trace window by window as SoA packet
//!   batches, with peak memory independent of trace length — the packet
//!   source behind `Monitor::drive` for the scenario workloads and the
//!   Figs. 12–16 experiments.
//! * [`synthesis`] — the expansion's options and its whole-trace form,
//!   [`synthesize_packets`] (the stream, drained).
//! * [`summary`] — trace summary statistics.
//! * [`export`] — pcap export of synthetic traces via `flowrank-net`.
//! * [`workloads`] — the deterministic scenario catalog (heavy-tail α, flash
//!   crowd, DDoS flood, port scan, rank churn, mixed) that stresses the
//!   pipeline with traffic shapes beyond the Sprint/Abilene models.
//! * [`fleet`] — the multi-tenant fleet scenario: N tenants with
//!   heterogeneous catalog mixes and diurnal intensity envelopes, merged
//!   into one tenant-tagged stream for the `flowrank-fleet` layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abilene;
pub mod addressing;
mod arrivals;
pub mod export;
pub mod fleet;
pub mod flow_record;
pub mod generator;
pub mod replay;
pub mod sprint;
pub mod stream;
pub mod summary;
pub mod synthesis;
pub mod workloads;

pub use abilene::AbileneModel;
pub use fleet::{FleetScenario, FleetStream};
pub use flow_record::FlowRecord;
pub use generator::{FlowPopulationConfig, SizeModel};
pub use replay::{PacedReplay, ReplayTick};
pub use sprint::SprintModel;
pub use stream::SynthesisStream;
pub use synthesis::{synthesize_packets, SynthesisConfig};
pub use workloads::Workload;
