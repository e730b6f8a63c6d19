//! # flowrank-sim
//!
//! Trace-driven sampling simulation engine, reproducing the binned
//! experiments of Sec. 8 of the paper on top of the streaming
//! [`flowrank_monitor::Monitor`].
//!
//! The methodology (Sec. 8.1): the packet-level trace is cut into measurement
//! bins; within each bin the packets are sampled, classified into flows under
//! a chosen flow definition, and the sampled ranking is compared with the
//! unsampled ranking of the same bin through the swapped-pair metrics. Each
//! experiment is repeated over several independent sampling runs (30 in the
//! paper) and reported as a per-bin mean with its standard deviation — the
//! error bars of Figs. 12–16.
//!
//! Experiments are expressed through the push-based monitor: each bin is
//! classified into ground truth **once** and all `runs × rates` sampling
//! lanes are scored against that single ranking, rather than re-running the
//! whole classify–rank pipeline per run as the original batch engine did.
//!
//! * [`binning`] — cutting a packet trace into per-bin vectors (flows active
//!   across a bin boundary are truncated, exactly as the paper's binning
//!   method does): what the conformance and equivalence suites feed the
//!   oracle with — the monitor cuts its own bins.
//! * [`conformance`] — the differential harness that drives one
//!   configuration through every execution path (`push_batch_into` one
//!   record per call and chunked, `run_batch`, `drive`, `try_drive`,
//!   `threads(n)` lane shards) and through the oracle, asserts
//!   bit-identical reports and condenses the stream into a stable golden
//!   digest.
//! * [`convergence`] — the closed-loop harness: drives a
//!   `flowrank-control` controller over a scenario workload, computes
//!   per-bin regret against the offline-optimal rate from `core::optimal`,
//!   and digests the decision trace for golden pinning.
//! * [`engine`] — the independent per-packet oracle of one bin (own flow
//!   tables, one `keep` per packet, no `Monitor`; it shares only
//!   `GroundTruthRanking` with the monitor, and scores with its dense
//!   definition where the monitor runs the sparse kernel), crate-private
//!   but for [`engine::run_bin_random_sampling`], which the
//!   `streaming_equivalence` suite compares the monitor against.
//! * [`experiment`] — multi-run, multi-bin experiments: one fanned-out
//!   monitor driven over the trace once, its per-bin reports folded into
//!   mean ± std series.
//! * [`grids`] — the parameter grids of Figs. 1–11 that the `reproduce`
//!   binary (`src/bin/reproduce.rs`, the figure-reproduction CLI) sweeps.
//! * [`faults`] — deterministic fault injection ([`FaultySource`],
//!   [`FaultySink`], seeded [`FaultPlan`] schedules) behind the chaos
//!   conformance suite for `Monitor::try_drive`.
//! * [`report`] — CSV-style rendering of experiment results.
//! * [`scenarios`] — ready-made Sprint / Abilene experiment configurations
//!   matching Figs. 12–16.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod conformance;
pub mod convergence;
pub mod engine;
pub mod experiment;
pub mod faults;
pub mod grids;
pub mod report;
pub mod scenarios;

pub use conformance::{run_conformance, run_streamed_conformance, ConformanceConfig};
pub use convergence::{run_convergence, ConvergenceConfig, ConvergencePoint, ConvergenceResult};
pub use experiment::{ExperimentConfig, ExperimentResult, TraceExperiment};
pub use faults::{FaultPlan, FaultySink, FaultySource, InjectedFaults, SinkFault, SourceFault};
pub use scenarios::{abilene_experiment, sprint_experiment_with_sampler, workload_builder};

// The monitor is the front door experiments are built on; re-export the
// names needed to configure one from simulation code.
pub use flowrank_monitor::{ControllerSpec, Monitor, MonitorBuilder, SamplerSpec, TopKSpec};
