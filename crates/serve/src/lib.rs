//! # flowrank-serve
//!
//! The serving layer: run a [`flowrank_monitor::Monitor`] as a long-lived
//! daemon over *live* sources instead of a finite replay.
//!
//! The paper's monitor is an online device: packets arrive when the link
//! delivers them, and operators poll the current top-k state while the
//! measurement runs. Everything below `flowrank-serve` in the workspace is
//! batch-shaped — a source that ends, a sink that collects — and this crate
//! adds the daemon shell around the same drive loop:
//!
//! * [`config`] — the `key = value` daemon configuration (source selection,
//!   monitor shape, retention, endpoints), hand-parsed because the
//!   workspace is std-only.
//! * [`signal`] — SIGINT/SIGTERM → a shared stop flag, so a
//!   [`StopGate`](flowrank_monitor::StopGate)-wrapped source reports a
//!   clean end-of-stream and the drive loop flushes its final bin on
//!   shutdown.
//! * [`snapshot`] — the rolling-state publisher: every closed bin is folded
//!   into a [`RollingWindow`](flowrank_monitor::RollingWindow), rendered to
//!   JSON, and served to pollers over a tiny HTTP endpoint that reports the
//!   snapshot's age (the source-starvation watchdog: a growing `age_s`
//!   under traffic means the source stopped delivering).
//! * [`socket`] — `source = socket`: a live TCP ndjson listener whose
//!   non-blocking reads run on the drive thread, with the same wire format
//!   and malformed-record contract as the stdin path.
//! * [`fleet_host`] — `tenants = N`: host a whole
//!   [`Fleet`](flowrank_fleet::Fleet) of tenant monitors from one config
//!   file, driven by [`Fleet::drive`](flowrank_fleet::Fleet::drive) over the
//!   synthetic fleet scenario or tenant-tagged ndjson records.
//!
//! The binary (`flowrank-serve --config <file>`) wires the three to one
//! [`Monitor::try_drive`](flowrank_monitor::Monitor::try_drive) call over
//! the configured live source, boxed ([`flowrank_trace::PacedReplay`],
//! [`PcapTailSource`](flowrank_monitor::PcapTailSource),
//! [`NdjsonRecordSource`](flowrank_monitor::NdjsonRecordSource)). Memory is
//! bounded for an indefinite run: one chunk of packets, the monitor's
//! per-bin state, and `retain_bins` compact summaries.

#![warn(missing_docs)]
// `forbid(unsafe_code)` is the workspace norm, but the signal module needs
// one FFI call (`signal(2)`) — the workspace has no libc dependency.
#![deny(unsafe_code)]

pub mod config;
pub mod fleet_host;
#[allow(unsafe_code)]
pub mod signal;
pub mod snapshot;
pub mod socket;

pub use config::{ConfigError, OutputKind, ServeConfig, SourceKind};
pub use fleet_host::{run_fleet, FleetFinal};
pub use snapshot::{PublishSink, SnapshotPublisher};
