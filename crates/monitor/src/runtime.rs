//! The pipelined worker runtime behind [`MonitorBuilder::threads`].
//!
//! A monitor built with `threads(n)`, `n > 1`, spawns a **persistent** pool
//! of exactly `n` workers once, at `build()`, and tears it down on drop:
//!
//! ```text
//!   caller (ingest: split bins, derive keys, classify the bin's ground
//!     │      truth — each packet's flow id from the same probe — coalesce;
//!     │      at a seal, rank the drained truth once)
//!     │ bounded work queues, one per worker: packets + flow ids, and each
//!     │ seal carrying the bin's ranking
//!     ├─────────┬─────────┐
//!     ▼         ▼         ▼
//!  worker 0  worker 1  worker 2 …   every lane with index ≡ w (mod threads),
//!  (lanes    (lanes                 counting kept packets by flow id; at a
//!   0,3,6…)   1,4,7…)               seal, scoring them against the ranking
//!     │         │         │         (the controlled lane's owner then runs
//!     │         │         │         the control step and retunes it)
//!     ▼         ▼         ▼
//!   unbounded report queues, one per worker: scored lanes + controller trail
//!     │
//!     └──► caller interleaves them into lane order and delivers each
//!          [`BinReport`] to the sink
//! ```
//!
//! There is one path in: the caller appends every within-bin segment,
//! whatever its size, to the segment buffer being filled — each packet's
//! key derived once and classified into the bin's ground truth, whose
//! probe returns the packet's flow id — and ships the buffer to every
//! worker when it holds [`DISPATCH_CHUNK_PACKETS`] packets, when a bin seal
//! needs everything before it observed, or when the caller is about to wait
//! for a sealed bin's report (the pool may as well start on the next bin
//! meanwhile). A one-record batch is therefore a column append, and a
//! whole-bin batch is cut into full buffers. Each worker owns its
//! [`LaneShard`] by value — the caller never touches a lane — so nothing on
//! the packet path is locked.
//!
//! Ingestion, lane work and lane scoring **overlap**: while workers count
//! one buffer, the caller is already copying and classifying the next, and
//! while workers score bin *k*, the caller may already be classifying bin
//! *k + 1*'s packets. The bounded work queues provide backpressure — a
//! source that outruns the workers blocks in `send`, so peak memory stays
//! `flows + in-flight buffers` no matter how long the trace is.
//!
//! # Determinism
//!
//! Reports are **bit-identical** to the single-threaded path because nothing
//! order-dependent is ever split:
//!
//! * every lane sees every packet in stream order with its own RNG — lanes
//!   are *partitioned* across workers (strided, lane `i` on worker
//!   `i % threads`), never shared or reordered;
//! * the ground truth is one table, classified in stream order on the
//!   calling thread exactly as the serial engine classifies it, so flow ids
//!   and per-flow counters are the serial engine's too; at a seal the
//!   caller ranks it and only then clears it, the serial engine's order;
//! * every worker scores against that one ranking, and the caller puts the
//!   replies back into lane order (worker `w`'s `k`-th lane is lane
//!   `w + k·threads`);
//! * the control step runs exactly where the serial path runs it — after
//!   scoring, against the still-live ranking — on the worker that owns the
//!   controlled lane, which applies the retune before it reads its next
//!   message, so before the next bin's first packet.
//!
//! # Ordering and shutdown
//!
//! Every work queue carries the same message sequence, and each report
//! queue answers its worker's seals in order, so the caller assembles every
//! bin exactly once, in bin order. It delivers the finished bins before
//! every `push_batch_into` / `finish_into` call returns, which is what
//! keeps the synchronous API contract ("a push delivers the bins it
//! closed") intact. The report queues are unbounded: the caller may be
//! blocked sending to a full work queue while a worker answers a seal, and
//! a bounded reply would deadlock the two. The only blocking points are
//! work send and receive, report receive, and the joins on drop. On drop
//! the runtime enqueues one `Shutdown` behind whatever is in flight and
//! joins every worker — no detached threads, even when the monitor is
//! dropped mid-bin (packets still in the unshipped buffer are simply
//! dropped with it).
//!
//! # Failure containment
//!
//! Every worker runs under `catch_unwind`: a panic is recorded in a shared
//! failure cell **before** that worker's channels drop, so by the time the
//! caller sees its report queue disconnect the failure is already
//! observable through [`PipelinedRuntime::failure`]. Blocking drains return
//! the failure instead of panicking, the monitor converts it into
//! [`DriveError::WorkerPanicked`](crate::DriveError::WorkerPanicked), and
//! `Drop` joins the (already self-terminated) thread without the old
//! double-panic abort.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use flowrank_core::metrics::GroundTruthRanking;
use flowrank_net::{AnyFlowKey, FlowDefinition, FlowTable, PacketBatch, Timestamp};

use crate::monitor::{sized_flows, ControllerState, Lane, LaneShard, Segment};
use crate::pipeline::ReportSink;
use crate::report::{BinReport, ControllerTrail, LaneReport};

/// What a worker's `catch_unwind` recorded: which worker panicked
/// (`0..threads`) and the panic payload's message. First failure wins;
/// secondary panics on peers are caught and discarded.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeFailure {
    pub(crate) worker: usize,
    /// Carried for `{:?}` diagnostics (test failures, logs); the typed
    /// error surface exposes only the worker index and bin.
    #[allow(dead_code)]
    pub(crate) message: String,
}

/// Records a panic payload into the shared failure cell (first wins). Must
/// run while the panicking thread's channel endpoints are still alive, so
/// no other thread can observe the disconnect before the failure is
/// readable.
fn record_failure(
    cell: &Mutex<Option<RuntimeFailure>>,
    worker: usize,
    payload: &(dyn std::any::Any + Send),
) {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string());
    let mut slot = cell.lock().unwrap_or_else(|poison| poison.into_inner());
    if slot.is_none() {
        *slot = Some(RuntimeFailure { worker, message });
    }
}

/// Runs a worker's loop under `catch_unwind`. The loop's state lives in the
/// closure, outside the catch: a panic is recorded while the worker's
/// channels are still open, so the caller cannot see the disconnect before
/// the failure is readable.
fn spawn_contained(
    index: usize,
    failure: &Arc<Mutex<Option<RuntimeFailure>>>,
    mut run: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    let failure = Arc::clone(failure);
    std::thread::Builder::new()
        .name(format!("flowrank-worker-{index}"))
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut run));
            if let Err(payload) = result {
                record_failure(&failure, index, payload.as_ref());
            }
        })
        .expect("spawn flowrank pool thread")
}

/// Depth of each worker's bounded segment queue. This is the backpressure
/// knob: the caller blocks once any worker falls this many buffers behind,
/// bounding in-flight memory to a handful of segment buffers.
const SEGMENT_QUEUE_DEPTH: usize = 4;

/// Packets per shipped segment buffer. Within-bin segments of any size are
/// coalesced into buffers of this size, so ingest (key derivation + copy)
/// and worker classification overlap instead of serialising on one giant
/// hand-off, and a stream of tiny pushes costs one hand-off per buffer
/// rather than one per push.
const DISPATCH_CHUNK_PACKETS: usize = 4096;

/// One decoded slice of the packet stream with the ground-truth flow id of
/// every packet, shared read-only with every worker. Buffers are recycled
/// through a small pool once all workers drop their handles.
#[derive(Debug, Default)]
struct SegmentBuf {
    batch: PacketBatch,
    /// Flow id of each packet in the bin's ground truth, assigned by the
    /// ingest stage.
    ids: Vec<u32>,
    /// The truth's flow count once it observed the buffer's last packet.
    flows: usize,
}

/// A closed bin as every worker receives it: its header and its ground
/// truth, ranked once by the ingest stage.
struct SealedBin {
    bin_index: u64,
    bin_start: Timestamp,
    /// Packets observed in the bin (before sampling).
    packets: u64,
    /// Its population is the bin's flows.
    ranking: GroundTruthRanking<AnyFlowKey>,
}

/// Work-queue protocol, identical for every worker: the caller broadcasts
/// the same message sequence to all queues, so every worker answers the
/// same seals in the same order.
enum ToWorker {
    /// Observe a buffer: offer the whole of it to each of the worker's
    /// lanes.
    Segment(Arc<SegmentBuf>),
    /// Close the current bin: score the lanes against its ranking and
    /// answer on the report queue.
    Seal(Arc<SealedBin>),
    /// Exit the worker loop.
    Shutdown,
}

/// A worker's answer to one seal: its lanes' reports in shard order, and
/// the control step's trail when it owns the controlled lane.
type Reply = (Vec<LaneReport>, Option<ControllerTrail>);

/// Lane worker *w*: owns every lane whose index is congruent to *w* mod
/// `threads`, by value. The strided lane partition spreads a rate grid's
/// expensive high-rate lanes evenly across workers (a contiguous split
/// would hand one worker the whole top rate group).
struct Worker {
    top_t: usize,
    shard: LaneShard,
    /// The controller and the controlled lane's position in `shard`'s
    /// lanes, when this worker owns that lane.
    controller: Option<(usize, ControllerState)>,
    work_rx: Receiver<ToWorker>,
    report_tx: Sender<Reply>,
}

impl Worker {
    fn run(&mut self) {
        while let Ok(msg) = self.work_rx.recv() {
            match msg {
                ToWorker::Segment(seg) => self.shard.observe(&Segment {
                    batch: &seg.batch,
                    range: 0..seg.batch.len(),
                    ids: &seg.ids,
                    flows: seg.flows,
                    truth: None,
                }),
                ToWorker::Seal(bin) => {
                    let mut lanes = Vec::new();
                    self.shard.score(&bin.ranking, self.top_t, &mut lanes);
                    let mut trail = None;
                    if let Some((lane, state)) = &mut self.controller {
                        let (decided, retune) = state.step(
                            bin.bin_index,
                            bin.packets,
                            &mut lanes[*lane],
                            &bin.ranking,
                            self.top_t,
                        );
                        trail = Some(decided);
                        if let Some((rate, spec)) = retune {
                            self.shard.retune(*lane, rate, spec);
                        }
                    }
                    if self.report_tx.send((lanes, trail)).is_err() {
                        return;
                    }
                }
                ToWorker::Shutdown => return,
            }
        }
    }
}

/// Handle owned by the [`crate::Monitor`]: the caller-facing half of the
/// pipelined runtime (ingest, seals, report assembly and delivery,
/// shutdown).
pub(crate) struct PipelinedRuntime {
    threads: usize,
    top_t: usize,
    work_tx: Vec<SyncSender<ToWorker>>,
    /// One per worker, unbounded (see the module doc's ordering section).
    report_rx: Vec<Receiver<Reply>>,
    workers: Vec<JoinHandle<()>>,
    /// The bin's ground truth, owned by the ingest stage: it classifies each
    /// packet as it copies it and ships the packet's flow id.
    truth: FlowTable<AnyFlowKey>,
    /// First panic recorded by any worker's `catch_unwind`
    /// (see [`record_failure`]); read through
    /// [`PipelinedRuntime::failure`].
    failure: Arc<Mutex<Option<RuntimeFailure>>>,
    /// The buffer being filled: uniquely owned until it ships.
    filling: Arc<SegmentBuf>,
    /// Recycled segment buffers; an entry is free once every worker dropped
    /// its handle (`Arc::strong_count == 1`).
    pool: Vec<Arc<SegmentBuf>>,
    /// Buffers shipped to the pool since the monitor was built.
    shipped: u64,
    /// Seals dispatched whose reports have not yet reached the sink, oldest
    /// first.
    pending: VecDeque<Arc<SealedBin>>,
    /// The oldest pending seal's replies received so far, by worker.
    replies: Vec<Option<Reply>>,
    /// Report shell recycled across bins.
    report: BinReport,
}

impl PipelinedRuntime {
    /// Spawns `threads` workers. Called once from `MonitorBuilder::build`;
    /// the pool lives until the monitor drops.
    pub(crate) fn spawn(
        lanes: Vec<Lane>,
        mut controller: Option<ControllerState>,
        threads: usize,
        top_t: usize,
    ) -> Self {
        debug_assert!(threads > 1);
        let mut strided: Vec<Vec<Lane>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, lane) in lanes.into_iter().enumerate() {
            strided[i % threads].push(lane);
        }
        let failure: Arc<Mutex<Option<RuntimeFailure>>> = Arc::new(Mutex::new(None));
        let mut work_tx = Vec::with_capacity(threads);
        let mut report_rx = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for (w, lanes) in strided.into_iter().enumerate() {
            let (wtx, wrx) = sync_channel(SEGMENT_QUEUE_DEPTH);
            let (rtx, rrx) = channel();
            let mut worker = Worker {
                top_t,
                shard: LaneShard::new(lanes),
                controller: controller
                    .take_if(|state| state.lane % threads == w)
                    .map(|state| (state.lane / threads, state)),
                work_rx: wrx,
                report_tx: rtx,
            };
            workers.push(spawn_contained(w, &failure, move || worker.run()));
            work_tx.push(wtx);
            report_rx.push(rrx);
        }
        PipelinedRuntime {
            threads,
            top_t,
            work_tx,
            report_rx,
            workers,
            truth: FlowTable::new(),
            failure,
            filling: Arc::default(),
            pool: Vec::new(),
            shipped: 0,
            pending: VecDeque::new(),
            replies: (0..threads).map(|_| None).collect(),
            report: BinReport::default(),
        }
    }

    /// Buffers shipped to the pool since the monitor was built.
    pub(crate) fn shipped(&self) -> u64 {
        self.shipped
    }

    /// Appends a within-bin segment of any size to the buffer being filled,
    /// classifying each packet into the bin's ground truth on the way (its
    /// key derived once, its flow id from the same probe), and ships the
    /// buffer every time it reaches [`DISPATCH_CHUNK_PACKETS`]. What is left
    /// stays buffered until later packets fill it, a seal flushes it, or the
    /// caller is about to wait on the pool.
    pub(crate) fn append_segment(
        &mut self,
        definition: FlowDefinition,
        batch: &PacketBatch,
        range: Range<usize>,
    ) {
        let mut start = range.start;
        while start < range.end {
            let seg = Arc::get_mut(&mut self.filling).expect("the filling buffer is unshared");
            let end = range
                .end
                .min(start + DISPATCH_CHUNK_PACKETS - seg.batch.len());
            seg.batch.extend_from_batch(batch, start..end);
            for i in start..end {
                seg.ids.push(self.truth.observe_id(
                    batch.flow_key(i, definition),
                    batch.timestamp(i),
                    batch.length(i),
                    batch.tcp_seq(i),
                ));
            }
            seg.flows = self.truth.flow_count();
            if seg.batch.len() == DISPATCH_CHUNK_PACKETS {
                self.ship();
            }
            start = end;
        }
    }

    /// Broadcasts the buffer being filled to every worker's bounded queue
    /// (identical order on every queue) and starts a recycled one. No-op on
    /// an empty buffer.
    fn ship(&mut self) {
        if self.filling.batch.is_empty() {
            return;
        }
        let free = self.pool.iter().position(|buf| Arc::strong_count(buf) == 1);
        let mut next = free.map_or_else(Arc::default, |i| self.pool.swap_remove(i));
        let seg = Arc::get_mut(&mut next).expect("a free pooled buffer is unshared");
        seg.batch.clear();
        seg.ids.clear();
        let full = std::mem::replace(&mut self.filling, next);
        for tx in &self.work_tx {
            let _ = tx.send(ToWorker::Segment(Arc::clone(&full)));
        }
        self.shipped += 1;
        // In-flight buffers are bounded by the queue depth, so the pool
        // stays small; the cap only guards pathological sink behaviour.
        if self.pool.len() < SEGMENT_QUEUE_DEPTH + self.threads + 2 {
            self.pool.push(full);
        }
    }

    /// Closes the current bin: ships whatever is buffered, ranks the bin's
    /// ground truth once and clears it, then broadcasts the seal with the
    /// ranking down the same queues, so it lands after every packet of the
    /// bin. The finished report is assembled and delivered by
    /// [`PipelinedRuntime::drain_into`] or
    /// [`PipelinedRuntime::try_drain_into`].
    pub(crate) fn dispatch_seal(&mut self, bin_index: u64, bin_start: Timestamp) {
        self.ship();
        let ranking = GroundTruthRanking::new(sized_flows(&self.truth), self.top_t);
        let bin = Arc::new(SealedBin {
            bin_index,
            bin_start,
            packets: self.truth.total_packets(),
            ranking,
        });
        self.truth.clear();
        for tx in &self.work_tx {
            let _ = tx.send(ToWorker::Seal(Arc::clone(&bin)));
        }
        self.pending.push_back(bin);
    }

    /// Delivers every pending bin whose replies have all arrived, without
    /// blocking — called opportunistically mid-batch so sinks see bins as
    /// they seal, while ingest keeps overlapping with lane work.
    pub(crate) fn try_drain_into<K: ReportSink + ?Sized>(&mut self, sink: &mut K) {
        while let Ok(true) = self.deliver_oldest(sink, false) {}
    }

    /// Blocks until every dispatched seal's report has reached the sink —
    /// the tail barrier that keeps `push_batch_into` synchronous: all bins a
    /// call closed are delivered before it returns. Before it waits it ships
    /// what is buffered — the packets after the last seal — so the workers
    /// run on into the next bin instead of idling until the caller is back.
    /// When a worker died underneath, returns the recorded failure instead
    /// of panicking; outstanding seals are forfeited.
    pub(crate) fn drain_into<K: ReportSink + ?Sized>(
        &mut self,
        sink: &mut K,
    ) -> Result<(), RuntimeFailure> {
        if !self.pending.is_empty() {
            self.ship();
        }
        while !self.pending.is_empty() {
            if let Err(worker) = self.deliver_oldest(sink, true) {
                // That worker is gone; no reply will ever arrive for the
                // outstanding seals. Its report queue disconnects only
                // after it recorded its failure.
                self.pending.clear();
                return Err(self.failure().unwrap_or(RuntimeFailure {
                    worker,
                    message: "worker disconnected".to_string(),
                }));
            }
        }
        Ok(())
    }

    /// The first panic recorded by any worker, if one has happened.
    pub(crate) fn failure(&self) -> Option<RuntimeFailure> {
        self.failure
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone()
    }

    /// Collects the oldest pending bin's replies — waiting for each when
    /// `block`, taking only those already queued otherwise — and, once
    /// every worker has answered, assembles its report into the recycled
    /// shell and delivers it. `Ok(false)` when nothing is pending or a reply
    /// is still outstanding; `Err` names the worker whose report queue
    /// disconnected.
    fn deliver_oldest<K: ReportSink + ?Sized>(
        &mut self,
        sink: &mut K,
        block: bool,
    ) -> Result<bool, usize> {
        let Some(bin) = self.pending.front() else {
            return Ok(false);
        };
        for (w, (rx, slot)) in self.report_rx.iter().zip(&mut self.replies).enumerate() {
            if slot.is_some() {
                continue;
            }
            let reply = if block {
                rx.recv().map_err(|_| w)?
            } else {
                match rx.try_recv() {
                    Ok(reply) => reply,
                    Err(TryRecvError::Empty) => return Ok(false),
                    Err(TryRecvError::Disconnected) => return Err(w),
                }
            };
            *slot = Some(reply);
        }
        let report = &mut self.report;
        report.reset();
        report.bin_index = bin.bin_index;
        report.bin_start = bin.bin_start;
        report.packets = bin.packets;
        report.flows = bin.ranking.flows().len();
        let mut chunks = Vec::with_capacity(self.threads);
        for slot in &mut self.replies {
            let (lanes, trail) = slot.take().expect("every worker answered");
            if trail.is_some() {
                report.controller = trail;
            }
            chunks.push(lanes.into_iter());
        }
        // Worker w's k-th lane is lane w + k·threads.
        let lane_count = chunks.iter().map(ExactSizeIterator::len).sum();
        report.lanes.extend(
            (0..lane_count).map(|i| chunks[i % self.threads].next().expect("strided lanes")),
        );
        sink.accept(report);
        self.pending.pop_front();
        Ok(true)
    }
}

impl Drop for PipelinedRuntime {
    fn drop(&mut self) {
        // One Shutdown per queue, behind whatever is still in flight. A
        // worker blocks only on its work queue (its replies are unbounded),
        // so each one reaches its Shutdown.
        for tx in &self.work_tx {
            let _ = tx.send(ToWorker::Shutdown);
        }
        // Every worker catches its own panic (recording it in the failure
        // cell), so these joins cannot error; a poisoned monitor drops
        // cleanly instead of escalating to a double-panic abort.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for PipelinedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedRuntime")
            .field("threads", &self.threads)
            .field("shipped", &self.shipped)
            .field("pending_seals", &self.pending.len())
            .finish_non_exhaustive()
    }
}
