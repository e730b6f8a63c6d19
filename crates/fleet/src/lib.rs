//! # flowrank-fleet
//!
//! The multi-tenant fleet layer: thousands of monitors, one process, one
//! decode pass.
//!
//! A provider running the paper's monitor does not run it once — it runs it
//! per customer link, and the links are small. Giving every tenant its own
//! process (or its own packet-decode loop) spends the fixed costs N times.
//! This crate hosts N independent [`Monitor`](flowrank_monitor::Monitor)s
//! behind one slab and drives them from **tenant-tagged batches**: the
//! packet stream is decoded and key-derived exactly once upstream (by trace
//! synthesis or by the record parser), tagged with a compact
//! [`TenantId`](flowrank_net::TenantId), and each tenant run is pushed to
//! its monitor in place — never copied or re-parsed per tenant.
//!
//! ```text
//!                        one decode / key-derivation pass
//!   records ──────────▶ TaggedBatch ─ tenant runs ──┐
//!                                                   │ each run pushed in place
//!            ┌──────────────────────────────────────┘
//!            ▼
//!   ┌─ tenant slab ────────────────────────────────┐
//!   │ slot 0: Monitor ─┐                           │   worker 0: slots 0..k
//!   │ slot 1: Monitor ─┼─ tenant-affine workers ─┐ │   worker 1: slots k..2k
//!   │   ⋮              │                         │ │      ⋮  (tenant never
//!   │ slot N: Monitor ─┘                         │ │       changes worker)
//!   └────────────────────────────────────────────┼─┘
//!                                                ▼
//!                     reports in (tenant, bin) order ──▶ FleetSink
//! ```
//!
//! Three contracts make the fleet more than a `Vec<Monitor>`:
//!
//! * **Bit-identical to standalone.** Each tenant's monitor sees exactly
//!   the packet sequence a standalone monitor would see, in the same chunk
//!   order, processed by exactly one worker — so fleet reports are
//!   bit-identical to N independently driven monitors at *any* fleet
//!   thread count (pinned by the `fleet_conformance` suite).
//! * **Deterministic delivery.** Closed bins reach the [`FleetSink`] in
//!   (tenant, bin index) order after every push, regardless of which
//!   worker closed them; only the tenants that closed one are walked.
//! * **Bounded memory.** A per-tenant flow budget (space-saving-style
//!   eviction of the coldest flows, recorded on
//!   [`BinReport::evictions`](flowrank_monitor::BinReport)) keeps the
//!   fleet's footprint proportional to `tenants × budget`, not to traffic.
//!
//! Modules:
//!
//! * [`fleet`] — the [`Fleet`] slab, its [`FleetBuilder`], the
//!   [`FleetSink`] delivery trait and per-tenant statistics; [`Fleet::drive`]
//!   is the one loop over a source, calling the sink's `window_done` hook.
//! * [`source`] — the [`FleetSource`] trait (tenant-tagged windows) and its
//!   implementation for the synthetic
//!   [`FleetStream`](flowrank_trace::FleetStream) scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod source;

pub use fleet::{Fleet, FleetBuilder, FleetCollect, FleetSink, FleetSummary, TenantStats};
pub use source::FleetSource;
