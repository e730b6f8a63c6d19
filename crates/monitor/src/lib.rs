//! # flowrank-monitor
//!
//! The push-based streaming monitor: **one pipeline for sampling,
//! classification and ranking metrics**.
//!
//! The paper's monitor observes packets one at a time on a live link. This
//! crate is that front door for the whole workspace: every packet goes
//! through [`Monitor::push_batch_into`], which
//!
//! 1. classifies the packet into the current measurement bin's ground-truth
//!    flow table (under a runtime-selected [`FlowDefinition`]), whose probe
//!    also returns the packet's **flow id** — the flow's position in that
//!    table,
//! 2. offers it to every *sampling lane* — an independent sampler (any
//!    [`SamplerSpec`]: random, periodic, stratified, flow, smart, adaptive)
//!    with its own deterministic RNG, which counts the packets it retains
//!    by flow id (`counts[id] += 1`: an array write, not a second hash
//!    table), and optionally a memory-bounded top-k backend ([`TopKSpec`])
//!    fed with the retained packets,
//! 3. closes bins automatically on timestamp boundaries, ranking the ground
//!    truth **once per bin** and scoring every lane against that single
//!    ranking ([`GroundTruthRanking`] from `flowrank-core`) from only the
//!    flows the lane sampled ([`GroundTruthRanking::compare_sparse`]: a lane
//!    costs what it kept, not what the bin held, and every lookup is an
//!    array read by flow id or rank; debug builds check each outcome against
//!    the dense definition, `compare_with`), and emits a [`BinReport`]
//!    carrying the per-lane swapped-pair [`ComparisonOutcome`]s.
//!
//! A monitor with a [`MonitorBuilder::flow_budget`] counts by id too: when
//! the truth evicts, the engine moves every lane's counts with the ids, and
//! a lane keeps the count of a flow the truth evicted, by key, until the
//! flow comes back.
//!
//! The multi-run fan-out mode ([`MonitorBuilder::rates`] +
//! [`MonitorBuilder::runs`]) is what the paper's Sec. 8 methodology needs: 30
//! independent sampling runs at each of several rates, all sharing one
//! ground-truth classification per bin instead of reclassifying the bin
//! `runs × rates` times. `flowrank_sim::TraceExperiment` is one
//! `Monitor::drive`; `flowrank_sim::engine::run_bin` is not built on this
//! crate at all — it is the independent per-packet oracle the conformance
//! suites check the monitor against.
//!
//! [`Monitor::push_batch_into`] takes a whole SoA
//! [`flowrank_net::PacketBatch`] (e.g. straight from the zero-copy pcap
//! decoder): the monitor splits it on bin boundaries,
//! derives flow keys and flow ids once per segment, classifies the ground
//! truth in one pass and offers every lane the batch at a time — skip-based
//! samplers then touch only the packets they keep. The **equivalence contract** is
//! that a one-packet push is a one-record batch: cutting the stream into
//! batches of any size produces bit-identical [`BinReport`]s, including under
//! [`MonitorBuilder::threads`] sharding (pinned by the
//! `streaming_equivalence` integration suite).
//!
//! # Lane shards: `threads(n)`
//!
//! [`MonitorBuilder::threads`] `(n)` strides the lanes over `n` shards —
//! lane `i` in shard `i mod n` — and keeps `n` threads busy, the caller
//! included: the calling thread runs shard 0, and `n − 1` persistent
//! helpers, spawned once at `build()` and joined on drop, run the others
//! (the `pool_threads` suite counts them). There is one engine and one
//! path in: the caller splits each batch on bin boundaries, derives keys
//! once and classifies every packet into the bin's one ground-truth table,
//! which gives the packet its flow id. With `threads(1)` it then offers the
//! segment to every lane in place. Otherwise it appends the segment (one
//! packet or a whole bin) with its flow ids to one 4096-packet buffer and
//! forks when the buffer is full or a bin seal needs it: every helper
//! offers the buffer to its lanes while the caller offers it to shard 0,
//! and the caller waits for every helper's ack. At a seal the caller ranks
//! the bin's truth once, every shard scores its lanes against that ranking
//! in the same fork, and the caller puts the scores back into lane order.
//! The guarantees, pinned by the `worker_runtime` suite and the golden
//! conformance matrix:
//!
//! * **Determinism** — reports are bit-identical for every thread count,
//!   chunking and entry point. The truth is classified in stream order on
//!   the calling thread at every thread count, so flow ids agree, and every
//!   lane sees every packet in order with its own RNG.
//! * **Bounded hand-offs** — because the caller coalesces, forks follow
//!   the packet count, not the call count: a one-record batch is a column
//!   append that pays one fork per 4096 packets
//!   ([`Monitor::segment_stats`] counts the buffers forked), and memory
//!   stays flows + one buffer.
//! * **Ordering & shutdown** — every bin is scored and delivered on the
//!   calling thread before the call that closed it returns, strictly in
//!   order. Dropping the monitor mid-bin drops the helpers' senders, which
//!   ends them, and joins every thread.
//!
//! # The source/sink pipeline and `drive`
//!
//! [`Monitor::drive`] is the canonical way to run a whole measurement: a
//! [`PacketSource`] yields `&PacketBatch` chunks on demand (an in-memory
//! batch, an incrementally decoded pcap capture, a scenario
//! workload synthesised window by window, or any of them re-chunked through
//! [`Chunked`]) and a [`ReportSink`] receives each closed bin's
//! [`BinReport`] **by reference** the moment it closes ([`Collect`],
//! the online [`RateCurve`] aggregator, ndjson/csv writer sinks, the
//! conformance [`DigestSink`], or a [`Tee`] of any of them). The `drive`
//! contract, spelled out on [`Monitor::drive`]:
//!
//! * reports are **chunking-invariant**: bit-identical for any source
//!   chunking and any thread count;
//! * the sink sees every bin exactly once, in bin order, idle bins
//!   included, with the final partial bin flushed at end of stream;
//! * reports are **borrowed**: the monitor recycles one report buffer
//!   across bins, so steady-state bin closes allocate nothing — a sink that
//!   keeps report data beyond `accept` must copy it (only [`Collect`]
//!   does).
//!
//! The monitor has five ingestion entry points, all over one sink-based
//! core: [`Monitor::push_range_into`] and [`Monitor::finish_into`] (the
//! allocation-free pair), [`Monitor::push_batch_into`] (a whole batch's
//! range), and [`Monitor::drive`] and [`Monitor::try_drive`], which run
//! one poll loop under two policies, so every equivalence guarantee
//! carries over bit-identically.
//! With a streaming source (e.g. [`flowrank_trace::Workload::stream`]) and
//! an aggregating sink, peak memory is independent of trace length — the
//! configuration the `ledger/` workloads measure.
//!
//! # Fault tolerance
//!
//! [`Monitor::try_drive`] is the fault-aware form of [`Monitor::drive`]:
//! both run one loop over the one source method,
//! [`PacketSource::try_next_chunk`]; `try_drive` delivers through the
//! fallible sink half, [`ReportSink::emit`], and is governed by a
//! [`DrivePolicy`] set with [`MonitorBuilder::drive_policy`]. The
//! error/recovery contract:
//!
//! * **Skipped** — recoverable malformed records
//!   ([`SourceError::Malformed`]) when [`DrivePolicy::skip_malformed`] is
//!   set; each skip is counted in [`DriveStats::malformed_skipped`]. Fatal
//!   source errors ([`SourceError::Fatal`] — I/O failure, lost pcap record
//!   boundary) always abort with [`DriveError::Source`].
//! * **Aborted** — the first failed [`ReportSink::emit`] aborts with
//!   [`DriveError::Sink`]. Nothing retries a report: `write_all` already
//!   rides out `Interrupted`, and any other failure may follow a partial
//!   write, after which re-emitting the report would duplicate its start.
//! * **Bounded** — total absorbed recoveries (skipped records + clamped
//!   timestamps) abort with [`DriveError::ErrorBudgetExhausted`] once they
//!   exceed [`DrivePolicy::error_budget`]; a genuinely silent source
//!   aborts with [`DriveError::SourceStalled`] instead of hanging. The
//!   stall detector is **wall-clock based**: it trips only once the
//!   source has been idle for [`DrivePolicy::stall_polls`] consecutive
//!   polls *and* [`DrivePolicy::stall_timeout`] of real time, sleeping
//!   [`DrivePolicy::idle_wait`] between idle polls so paced and tailing
//!   sources idle politely instead of busy-spinning. (Behaviour change
//!   from the original detector, which tripped on poll count alone and
//!   misfired on live sources; `stall_timeout(Duration::ZERO)` restores
//!   the poll-count-only semantics.) A skipped malformed record resets
//!   the idle streak — skipping is progress past real input, so a source
//!   alternating garbage with silence is degraded, not stalled. The
//!   error carries how long the source was silent (its `stalled_for`
//!   field). Out-of-order
//!   timestamps follow [`TimestampPolicy`]: the historical
//!   debug-assert/silent-fold default, fail-fast
//!   [`TimestampPolicy::Reject`], or counted
//!   [`TimestampPolicy::ClampAndCount`].
//! * **Poisoned** — a panic in a lane shard of a `threads(n > 1)` monitor,
//!   on the calling thread or on a helper, is caught and recorded, and the
//!   drive aborts with [`DriveError::WorkerPanicked`]. The monitor is then
//!   *poisoned but droppable*: further fallible calls return the same
//!   error, infallible entry points panic (one clean panic — never the old
//!   double-panic abort), and dropping the monitor joins every thread
//!   safely.
//! * **Accounted** — every recovery action lands in a [`DriveStats`]
//!   returned on successful completion and carried by every [`DriveError`],
//!   so aborted drives are auditable too.
//!
//! Fault-free `try_drive` runs are bit-identical to `drive` (pinned against
//! all conformance goldens); the deterministic fault-injection harness
//! lives in `flowrank_sim::faults`.
//!
//! A source's poll tells "no data right now" from end-of-stream: it answers
//! an empty chunk (an idle poll) where it would otherwise block, and
//! `Ok(None)` at the end. No source waits, retries or skips on its own —
//! the drive loop does: `drive` waits out idle polls, skips malformed
//! records and ends at a fatal error, `try_drive` follows its policy. The
//! live source adapters (pcap tailing, ndjson feeds, channels, paced
//! replay, stop gates) live in [`pipeline`], and the bounded [`rolling`]
//! window summarises reports for snapshot serving.
//!
//! # Closed-loop rate control
//!
//! [`MonitorBuilder::controller`] attaches a `flowrank-control`
//! [`ControllerSpec`]: one extra *controlled* lane whose sampling rate is
//! retuned at every bin close from the bin's own report and ground truth.
//! The decision trail rides on [`BinReport::controller`] (a
//! [`ControllerTrail`]) and the controlled lane is flagged
//! [`LaneReport::controlled`], so every sink — csv, ndjson, [`RateCurve`],
//! [`DigestSink`] — audits the loop for free. The control step runs
//! single-threaded after lane scoring, so controlled monitors keep the full
//! bit-identical-across-paths contract.
//!
//! ```
//! use flowrank_monitor::{Collect, Monitor, SamplerSpec};
//! use flowrank_net::{FlowDefinition, PacketBatch, PacketRecord, Timestamp};
//! use std::net::Ipv4Addr;
//!
//! let mut monitor = Monitor::builder()
//!     .flow_definition(FlowDefinition::PREFIX24)
//!     .sampler(SamplerSpec::Random { rate: 0.1 })
//!     .rates(&[0.01, 0.1, 0.5])
//!     .runs(30)
//!     .bin_length(Timestamp::from_secs_f64(60.0))
//!     .top_t(10)
//!     .seed(2026)
//!     .build();
//!
//! // Live loop: hand packets over as the tap produces them (here one
//! // record at a time); closed bins reach the sink as they close.
//! let packet = PacketRecord::udp(
//!     Timestamp::from_secs_f64(0.5),
//!     Ipv4Addr::new(10, 0, 0, 1), 53,
//!     Ipv4Addr::new(100, 64, 0, 9), 53,
//!     120,
//! );
//! let mut sink = Collect::new();
//! monitor.push_batch_into(&PacketBatch::from_records(&[packet]), &mut sink);
//! // End of trace: close the final bin.
//! assert!(monitor.finish_into(&mut sink));
//! for report in &sink.reports {
//!     println!("bin {} closed: {} flows", report.bin_index, report.flows);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod monitor;
pub mod pipeline;
pub mod report;
pub mod rolling;
mod runtime;
pub mod spec;

pub use fault::{DriveError, DrivePolicy, DriveStats, DriveSummary, SourceError, TimestampPolicy};
pub use monitor::{Monitor, MonitorBuilder};
pub use pipeline::{
    parse_ndjson_record, BatchSource, ChannelSource, Chunked, Collect, CsvSink, DigestSink,
    NdjsonRecordSource, NdjsonSink, PacketSource, PcapBytesSource, PcapTailSource, RateCurve,
    RatePoint, ReportSink, StopGate, Tee,
};
pub use report::{BinReport, ControllerTrail, LaneReport, TopKReport};
pub use rolling::{BinSummary, RateSummary, RollingWindow};
pub use spec::{SamplerSpec, TopKSpec};

// Re-exported so monitor users can name the metric types without a direct
// `flowrank-core` dependency.
pub use flowrank_core::metrics::{ComparisonOutcome, GroundTruthRanking};
pub use flowrank_net::FlowDefinition;

// Re-exported so a controlled monitor can be configured without a direct
// `flowrank-control` dependency.
pub use flowrank_control::{BinObservation, ControllerSpec, RateController, RateDecision};
