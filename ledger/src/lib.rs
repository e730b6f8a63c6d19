//! # flowrank-ledger
//!
//! The performance ledger of the flowrank workspace: five workloads, five
//! end-to-end metrics and a traced per-layer breakdown of the packet path,
//! measured from outside the library through its public functions. The
//! `ledger` binary runs one workload per process; `BENCHMARK.json` at the
//! repository root names the command, the workloads and every metric.
//! `README.md` beside this crate's manifest is the operator's guide.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod fleet_wl;
pub mod harness;
pub mod host;
pub mod json;
pub mod layers;
pub mod mem;
pub mod monitor_wl;
pub mod procfs;
pub mod replica;
pub mod run;
pub mod serve_wl;
pub mod spans;
pub mod stats;
