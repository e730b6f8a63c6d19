//! The pipelined worker runtime behind [`MonitorBuilder::threads`].
//!
//! A monitor built with more than one thread spawns a **persistent** pool
//! once, at `build()`, and tears it down on drop:
//!
//! ```text
//!   caller (ingest: split bins, derive keys, classify the bin's ground
//!     │      truth — each packet's flow id from the same probe — coalesce)
//!     │ bounded SPSC work queues, one per worker: packets + flow ids
//!     ├─────────┬─────────┬─────────┐
//!     │         ▼         ▼         ▼
//!     │     worker 0  worker 1  worker 2 …   every lane with index
//!     │     (lanes    (lanes                 ≡ w (mod threads), counting
//!     │      0,3,6…)   1,4,7…)               kept packets by flow id
//!     │ seal:   │ scored lane reports
//!     │ drained └─────────┴─────────┘
//!     │ truth             ▼
//!     └────────────► sequencer — ranks the ground truth once, broadcasts
//!                        │       the ranking, reassembles the lane reports
//!                        ▼       in lane order, runs the control step
//!                    out queue → caller delivers each [`BinReport`] to the sink
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
//! while the sequencer assembles bin *k*'s report, workers may already be
//! counting bin *k + 1*'s packets. The bounded work queues provide
//! backpressure — a source that outruns the workers blocks in `send`, so
//! peak memory stays `flows + in-flight buffers` no matter how long the
//! trace is.
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
//!   and per-flow counters are the serial engine's too;
//! * the sequencer is the only thread that seals bins: it ranks the truth
//!   the caller drained, reassembles lane reports into lane order, and runs
//!   the controller step exactly where the serial path does (after
//!   scoring, against the still-live ranking); the retune it decides rides
//!   the token that lets the controlled lane's worker enter the next bin,
//!   so that worker applies it before the bin's first packet.
//!
//! # Ordering and shutdown
//!
//! The out queue is unbounded and FIFO, so the sink sees every bin exactly
//! once in bin order; the caller drains it before every `push_batch_into` /
//! `finish_into` call returns, which is what keeps the synchronous API
//! contract ("a push delivers the bins it closed") intact. At a seal the
//! caller sends the drained truth to the sequencer *before* it broadcasts
//! the seal, and the sequencer reads it only once worker 0 has reached that
//! seal, so the sequencer never waits on the caller directly. On drop the
//! runtime enqueues one `Shutdown` behind whatever is in flight, joins every
//! worker, and then joins the sequencer, which sees worker 0's seal queue
//! close — no detached threads, even when the monitor is dropped mid-bin
//! (packets still in the unshipped buffer are simply dropped with it).
//!
//! # Failure containment
//!
//! Every worker and the sequencer run under `catch_unwind`: a panic on any
//! pool thread is recorded in a shared failure cell **before** that
//! thread's channels drop, so by the time the disconnect cascades (peer
//! workers and the sequencer exit their loops, the caller's out-queue
//! receive fails) the failure is already observable through
//! [`PipelinedRuntime::failure`]. Blocking drains return the failure
//! instead of panicking, the monitor converts it into
//! [`DriveError::WorkerPanicked`](crate::DriveError::WorkerPanicked), and
//! `Drop` joins the (already self-terminated) threads without the old
//! double-panic abort.

use std::ops::Range;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use flowrank_core::metrics::{GroundTruthRanking, SizedFlow};
use flowrank_net::{AnyFlowKey, FlowDefinition, FlowTable, PacketBatch, Timestamp};

use crate::monitor::{sized_flows, ControllerState, Lane, LaneShard, Segment};
use crate::pipeline::ReportSink;
use crate::report::{BinReport, LaneReport};
use crate::spec::SamplerSpec;

/// What a pool thread's `catch_unwind` recorded: which thread panicked
/// (`0..threads` for workers, `threads` for the sequencer) and the panic
/// payload's message. First failure wins; secondary panics on peers are
/// caught and discarded.
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

/// Runs a pool thread's loop under `catch_unwind`. The loop's state lives in
/// the closure, outside the catch: a panic is recorded while the thread's
/// channels are still open, so no peer can see the disconnect before the
/// failure is readable.
fn spawn_contained(
    name: String,
    index: usize,
    failure: &Arc<Mutex<Option<RuntimeFailure>>>,
    mut run: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    let failure = Arc::clone(failure);
    std::thread::Builder::new()
        .name(name)
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

/// Work-queue protocol, identical for every worker: the caller broadcasts
/// the same message sequence to all queues, which is what makes the seal
/// handshake deadlock-free (no worker can ever be waiting on a message
/// another worker already consumed).
enum ToWorker {
    /// Observe a buffer: offer the whole of it to each of the worker's
    /// lanes.
    Segment(Arc<SegmentBuf>),
    /// Close the current bin: score the lanes against the ranking the
    /// sequencer broadcasts.
    Seal,
    /// Exit the worker loop.
    Shutdown,
}

/// The ingest stage's half of a seal: the bin's ground truth, drained.
struct SealedTruth {
    bin_index: u64,
    bin_start: Timestamp,
    /// Flow sizes in flow-id order.
    flows: Vec<SizedFlow<AnyFlowKey>>,
    packets: u64,
}

/// Sequencer → worker control messages during a seal.
enum SequencerCtl {
    /// The bin's ground-truth ranking; score your lanes against it.
    Score(Arc<GroundTruthRanking<AnyFlowKey>>),
    /// Controller step done: apply the retune it decided (if any) to the
    /// controlled lane, then enter the next bin. Sent only to the worker
    /// owning the controlled lane.
    Proceed(Option<(f64, SamplerSpec)>),
}

/// Lane worker *w*: owns every lane whose index is congruent to *w* mod
/// `threads`, by value. The strided lane partition spreads a rate grid's
/// expensive high-rate lanes evenly across workers (a contiguous split
/// would hand one worker the whole top rate group).
struct Worker {
    top_t: usize,
    shard: LaneShard,
    /// Position of the controlled lane in `shard`'s lanes, when this worker
    /// owns it; such a worker waits for `Proceed` at the end of every seal.
    controlled: Option<usize>,
    work_rx: Receiver<ToWorker>,
    /// Worker 0 only: tells the sequencer a seal has arrived, so the
    /// sequencer waits on a channel that closes when the pool shuts down.
    seal_tx: Option<SyncSender<()>>,
    report_tx: SyncSender<Vec<LaneReport>>,
    ctl_rx: Receiver<SequencerCtl>,
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
                ToWorker::Seal => {
                    if !self.seal() {
                        return;
                    }
                }
                ToWorker::Shutdown => return,
            }
        }
    }

    /// One seal handshake. Returns false when a channel closed underneath
    /// (the runtime is shutting down abnormally), telling the loop to exit.
    fn seal(&mut self) -> bool {
        if let Some(seal_tx) = &self.seal_tx {
            if seal_tx.send(()).is_err() {
                return false;
            }
        }
        let Ok(SequencerCtl::Score(truth)) = self.ctl_rx.recv() else {
            return false;
        };
        let mut reports = Vec::new();
        self.shard.score(&truth, self.top_t, &mut reports);
        if self.report_tx.send(reports).is_err() {
            return false;
        }
        if let Some(lane) = self.controlled {
            let Ok(SequencerCtl::Proceed(retune)) = self.ctl_rx.recv() else {
                return false;
            };
            if let Some((rate, spec)) = retune {
                self.shard.retune(lane, rate, spec);
            }
        }
        true
    }
}

/// The single thread that reassembles bins in deterministic order: for each
/// seal it takes the ingest stage's drained truth, ranks it, broadcasts the
/// ranking, collects the scored lane chunks back into lane order, runs the
/// controller step, and pushes the finished report onto the (unbounded,
/// FIFO) out queue.
struct Sequencer {
    threads: usize,
    lane_count: usize,
    top_t: usize,
    controller: Option<ControllerState>,
    seal_rx: Receiver<()>,
    truth_rx: Receiver<SealedTruth>,
    report_rx: Vec<Receiver<Vec<LaneReport>>>,
    ctl_tx: Vec<SyncSender<SequencerCtl>>,
    out_tx: Sender<BinReport>,
    recycle_rx: Receiver<BinReport>,
}

impl Sequencer {
    fn run(&mut self) {
        // Scatter buffer: worker w's k-th report belongs to lane w + k·n.
        let mut slots: Vec<Option<LaneReport>> = Vec::with_capacity(self.lane_count);
        loop {
            // Worker 0 reaching a seal means the ingest stage has already
            // sent that bin's truth (it does so before broadcasting the
            // seal). Err means the workers are gone: shutdown — the truth
            // queue itself stays open as long as the monitor does.
            if self.seal_rx.recv().is_err() {
                return;
            }
            let Ok(sealed) = self.truth_rx.recv() else {
                return;
            };
            let flow_count = sealed.flows.len();
            let truth = Arc::new(GroundTruthRanking::new(sealed.flows, self.top_t));
            for tx in &self.ctl_tx {
                if tx.send(SequencerCtl::Score(truth.clone())).is_err() {
                    return;
                }
            }
            let mut report = self.recycle_rx.try_recv().unwrap_or_default();
            report.reset();
            slots.clear();
            slots.extend((0..self.lane_count).map(|_| None));
            for (w, rx) in self.report_rx.iter().enumerate() {
                let Ok(chunk) = rx.recv() else { return };
                for (k, lane_report) in chunk.into_iter().enumerate() {
                    slots[w + k * self.threads] = Some(lane_report);
                }
            }
            report
                .lanes
                .extend(slots.drain(..).map(|slot| slot.expect("every lane scored")));
            report.bin_index = sealed.bin_index;
            report.bin_start = sealed.bin_start;
            report.packets = sealed.packets;
            report.flows = flow_count;
            if let Some(state) = self.controller.as_mut() {
                let retune = state.step(&mut report, &truth, self.top_t);
                // The controlled lane's worker holds position until this
                // arrives, so the retune always lands before the next bin's
                // packets.
                let owner = state.lane % self.threads;
                if self.ctl_tx[owner]
                    .send(SequencerCtl::Proceed(retune))
                    .is_err()
                {
                    return;
                }
            }
            // The monitor may already be gone (drop mid-stream); workers
            // still need their handshakes drained, so keep looping.
            let _ = self.out_tx.send(report);
        }
    }
}

/// Handle owned by the [`crate::Monitor`]: the caller-facing half of the
/// pipelined runtime (ingest, seal bookkeeping, report delivery, shutdown).
pub(crate) struct PipelinedRuntime {
    threads: usize,
    work_tx: Vec<SyncSender<ToWorker>>,
    out_rx: Receiver<BinReport>,
    recycle_tx: Sender<BinReport>,
    workers: Vec<JoinHandle<()>>,
    sequencer: Option<JoinHandle<()>>,
    /// The bin's ground truth, owned by the ingest stage: it classifies each
    /// packet as it copies it and ships the packet's flow id.
    truth: FlowTable<AnyFlowKey>,
    truth_tx: Sender<SealedTruth>,
    /// First panic recorded by any pool thread's `catch_unwind`
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
    /// Seals dispatched whose reports have not yet reached the sink.
    pending_seals: usize,
}

impl PipelinedRuntime {
    /// Spawns `threads` workers plus the sequencer. Called once from
    /// `MonitorBuilder::build`; the pool lives until the monitor drops.
    pub(crate) fn spawn(
        lanes: Vec<Lane>,
        controller: Option<ControllerState>,
        threads: usize,
        top_t: usize,
    ) -> Self {
        debug_assert!(threads > 1);
        let lane_count = lanes.len();
        let controlled_lane = controller.as_ref().map(|state| state.lane);
        let mut strided: Vec<Vec<Lane>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, lane) in lanes.into_iter().enumerate() {
            strided[i % threads].push(lane);
        }
        let (out_tx, out_rx) = channel();
        let (recycle_tx, recycle_rx) = channel();
        let (truth_tx, truth_rx) = channel();
        let (seal_tx, seal_rx) = sync_channel(1);
        let mut seal_tx = Some(seal_tx);
        let failure: Arc<Mutex<Option<RuntimeFailure>>> = Arc::new(Mutex::new(None));
        let mut work_tx = Vec::with_capacity(threads);
        let mut report_rx = Vec::with_capacity(threads);
        let mut ctl_tx = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for (w, lanes) in strided.into_iter().enumerate() {
            let (wtx, wrx) = sync_channel(SEGMENT_QUEUE_DEPTH);
            let (rtx, rrx) = sync_channel(1);
            let (ctx, crx) = sync_channel(2);
            let mut worker = Worker {
                top_t,
                shard: LaneShard::new(lanes),
                controlled: controlled_lane
                    .filter(|lane| lane % threads == w)
                    .map(|lane| lane / threads),
                work_rx: wrx,
                seal_tx: seal_tx.take(),
                report_tx: rtx,
                ctl_rx: crx,
            };
            workers.push(spawn_contained(
                format!("flowrank-worker-{w}"),
                w,
                &failure,
                move || worker.run(),
            ));
            work_tx.push(wtx);
            report_rx.push(rrx);
            ctl_tx.push(ctx);
        }
        let mut sequencer = Sequencer {
            threads,
            lane_count,
            top_t,
            controller,
            seal_rx,
            truth_rx,
            report_rx,
            ctl_tx,
            out_tx,
            recycle_rx,
        };
        // The sequencer is reported as worker index `threads`.
        let sequencer =
            spawn_contained("flowrank-sequencer".into(), threads, &failure, move || {
                sequencer.run()
            });
        PipelinedRuntime {
            threads,
            work_tx,
            out_rx,
            recycle_tx,
            workers,
            sequencer: Some(sequencer),
            truth: FlowTable::new(),
            truth_tx,
            failure,
            filling: Arc::default(),
            pool: Vec::new(),
            shipped: 0,
            pending_seals: 0,
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
    /// (identical order on every queue — the invariant the seal handshake
    /// relies on) and starts a recycled one. No-op on an empty buffer.
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

    /// Asks the pool to close the current bin: ships whatever is buffered,
    /// drains the bin's ground truth to the sequencer, then broadcasts the
    /// seal down the same queues, so it lands after every packet of the bin.
    /// The finished report surfaces on the out queue and is delivered by
    /// [`PipelinedRuntime::drain_into`].
    pub(crate) fn dispatch_seal(&mut self, bin_index: u64, bin_start: Timestamp) {
        self.ship();
        // Sent before the seal: the sequencer reads it once worker 0 has
        // reached that seal.
        let _ = self.truth_tx.send(SealedTruth {
            bin_index,
            bin_start,
            flows: sized_flows(&self.truth),
            packets: self.truth.total_packets(),
        });
        self.truth.clear();
        for tx in &self.work_tx {
            let _ = tx.send(ToWorker::Seal);
        }
        self.pending_seals += 1;
    }

    /// Delivers any already-finished reports without blocking — called
    /// opportunistically mid-batch so sinks see bins as they seal, while
    /// ingest keeps overlapping with in-flight classification.
    pub(crate) fn try_drain_into<K: ReportSink + ?Sized>(&mut self, sink: &mut K) {
        while self.pending_seals > 0 {
            match self.out_rx.try_recv() {
                Ok(report) => self.deliver(report, sink),
                Err(_) => break,
            }
        }
    }

    /// Blocks until every dispatched seal's report has reached the sink —
    /// the tail barrier that keeps `push_batch_into` synchronous: all bins a
    /// call closed are delivered before it returns. Before it waits it ships
    /// what is buffered — the packets after the last seal — so the workers
    /// run on into the next bin instead of idling until the caller is back.
    /// When the pool died underneath (a worker or sequencer panicked),
    /// returns the recorded failure instead of panicking; outstanding seals
    /// are forfeited.
    pub(crate) fn drain_into<K: ReportSink + ?Sized>(
        &mut self,
        sink: &mut K,
    ) -> Result<(), RuntimeFailure> {
        if self.pending_seals > 0 {
            self.ship();
        }
        while self.pending_seals > 0 {
            match self.out_rx.recv() {
                Ok(report) => self.deliver(report, sink),
                Err(_) => {
                    // The pool is gone; no report will ever arrive for the
                    // outstanding seals. The disconnect can only cascade
                    // after the panicking thread recorded its failure.
                    self.pending_seals = 0;
                    return Err(self.failure().unwrap_or(RuntimeFailure {
                        worker: 0,
                        message: "worker pool disconnected".to_string(),
                    }));
                }
            }
        }
        Ok(())
    }

    /// The first panic recorded by any pool thread, if one has happened.
    pub(crate) fn failure(&self) -> Option<RuntimeFailure> {
        self.failure
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone()
    }

    fn deliver<K: ReportSink + ?Sized>(&mut self, report: BinReport, sink: &mut K) {
        sink.accept(&report);
        self.pending_seals -= 1;
        // Hand the shell back to the sequencer for the next bin.
        let _ = self.recycle_tx.send(report);
    }
}

impl Drop for PipelinedRuntime {
    fn drop(&mut self) {
        // One Shutdown per queue, behind whatever is still in flight. Every
        // queue has carried the identical message sequence, so no worker can
        // be stuck mid-handshake waiting for a peer: seal handshakes always
        // complete (the sequencer never blocks — its out queue is
        // unbounded), and then Shutdown is read.
        for tx in &self.work_tx {
            let _ = tx.send(ToWorker::Shutdown);
        }
        // Every pool thread catches its own panic (recording it in the
        // failure cell), so these joins cannot error; a poisoned monitor
        // drops cleanly instead of escalating to a double-panic abort.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // With every worker gone the seal senders are closed; the sequencer
        // sees the disconnect and exits.
        if let Some(handle) = self.sequencer.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for PipelinedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedRuntime")
            .field("threads", &self.threads)
            .field("shipped", &self.shipped)
            .field("pending_seals", &self.pending_seals)
            .finish_non_exhaustive()
    }
}
