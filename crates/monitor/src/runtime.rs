//! The fork-join lane shards behind [`MonitorBuilder::threads`].
//!
//! A monitor built with `threads(n)`, `n > 1`, splits its lanes into `n`
//! strided shards — lane `i` in shard `i % n` — keeps shard 0 on the
//! calling thread and spawns `n − 1` **persistent** helpers for the others
//! once, at `build()`; dropping the monitor joins them. So `threads(n)`
//! keeps `n` threads busy, the caller included:
//!
//! ```text
//!   caller: split bins, derive keys, classify the bin's ground truth (each
//!     │     packet's flow id from the same probe), append to one buffer
//!     │ fork: the full buffer (or, at a seal, what is left of it plus the
//!     │       bin's ranking) to every helper
//!     ├───────────┬───────────┐
//!     ▼           ▼           ▼
//!  shard 0     shard 1     shard 2 …   every lane with index ≡ s (mod n):
//!  (caller;    (helper)    (helper)    offer the buffer, and at a seal
//!   lanes                              score against the ranking
//!   0,3,6…)
//!     │           │           │
//!     ◄───────────┴───────────┘ join: each helper acks, with its scores
//!       at a seal; the caller interleaves them into lane order
//! ```
//!
//! The caller appends every within-bin segment, whatever its size, to one
//! owned buffer of up to [`DISPATCH_CHUNK_PACKETS`] packets and their flow
//! ids, and forks when the buffer is full or a seal needs it. A one-record
//! push is therefore a column append, and a whole-bin batch is cut into
//! full buffers. Nothing on the packet path is locked: the helpers only read
//! the buffer, and each owns its shard by value.
//!
//! # Determinism
//!
//! Reports are **bit-identical** to `threads(1)` because nothing
//! order-dependent is split: every lane sees every packet in stream order
//! with its own RNG; the ground truth is one table the caller classifies in
//! stream order; every shard scores against the one ranking, and shard
//! `s`'s `k`-th lane is lane `s + k·n`. The caller runs the control step
//! after the join, as the serial engine does, and a retune for a helper's
//! lane rides that helper's next message, so it lands before the next
//! bin's first packet.
//!
//! # Failure containment
//!
//! Shard 0 runs under `catch_unwind` on the caller and every helper under
//! its own. A panic is recorded in a shared failure cell — by a helper
//! before its channels drop, so the caller never sees the disconnect first
//! — and the fork returns it. The monitor converts it into
//! [`DriveError::WorkerPanicked`](crate::DriveError::WorkerPanicked) with
//! the shard index as `worker`. Dropping the senders ends every helper, and
//! `Drop` joins them.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use flowrank_core::metrics::GroundTruthRanking;
use flowrank_net::{AnyFlowKey, FlowDefinition, FlowTable, PacketBatch};

use crate::monitor::{Lane, LaneShard, Segment};
use crate::report::LaneReport;
use crate::spec::SamplerSpec;

/// What a shard's `catch_unwind` recorded: which shard panicked
/// (`0..threads`, 0 being the caller's) and the panic payload's message.
/// First failure wins.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeFailure {
    pub(crate) worker: usize,
    /// Carried for `{:?}` diagnostics (test failures, logs); the typed
    /// error surface exposes only the worker index and bin.
    #[allow(dead_code)]
    pub(crate) message: String,
}

type FailureCell = Arc<Mutex<Option<RuntimeFailure>>>;

/// Records a panic payload into the shared failure cell (first wins) and
/// returns the failure the cell holds.
fn record_failure(
    cell: &Mutex<Option<RuntimeFailure>>,
    worker: usize,
    payload: &(dyn std::any::Any + Send),
) -> RuntimeFailure {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string());
    let mut slot = cell.lock().unwrap_or_else(|poison| poison.into_inner());
    slot.get_or_insert(RuntimeFailure { worker, message })
        .clone()
}

/// Packets per forked buffer. Within-bin segments of any size are
/// coalesced into buffers of this size, so a stream of tiny pushes costs
/// one fork per buffer rather than one per push.
const DISPATCH_CHUNK_PACKETS: usize = 4096;

/// One decoded slice of the packet stream with the ground-truth flow id of
/// every packet, lent read-only to every helper for one fork.
#[derive(Default)]
struct SegmentBuf {
    batch: PacketBatch,
    /// Flow id of each packet in the bin's ground truth.
    ids: Vec<u32>,
    /// The truth's flow count once it observed the buffer's last packet.
    flows: usize,
}

type Ranking = GroundTruthRanking<AnyFlowKey>;

/// One fork's work for a helper: first the retune its controlled lane is
/// owed (position in its shard, rate tag, spec), then the buffer to offer
/// to its lanes, then the ranking to score them against at a seal.
struct Work {
    retune: Option<(usize, f64, SamplerSpec)>,
    segment: Option<Arc<SegmentBuf>>,
    seal: Option<Arc<Ranking>>,
}

/// The lane work of one fork, the same on every shard: offers the buffer,
/// then scores at a seal (returning the shard's reports in its lane order;
/// empty otherwise).
fn run_shard(
    shard: &mut LaneShard,
    segment: Option<&SegmentBuf>,
    seal: Option<&Ranking>,
    top_t: usize,
) -> Vec<LaneReport> {
    if let Some(seg) = segment {
        shard.observe(&Segment {
            batch: &seg.batch,
            range: 0..seg.batch.len(),
            ids: &seg.ids,
            flows: seg.flows,
            truth: None,
        });
    }
    let mut lanes = Vec::new();
    if let Some(ranking) = seal {
        shard.score(ranking, top_t, &mut lanes);
    }
    lanes
}

/// The caller's end of one helper: the helper's thread ends when `work`
/// drops.
struct Helper {
    work: Sender<Work>,
    acks: Receiver<Vec<LaneReport>>,
    thread: JoinHandle<()>,
}

/// Spawns the helper for `shard` (its index, ≥ 1). Its loop runs under
/// `catch_unwind` with the channels outside it, so a panic is recorded
/// while they are still open and the caller cannot see the disconnect
/// before the failure is readable.
fn spawn_helper(index: usize, mut shard: LaneShard, top_t: usize, failure: &FailureCell) -> Helper {
    let (work, work_rx) = channel::<Work>();
    let (ack_tx, acks) = channel();
    let failure = Arc::clone(failure);
    let thread = std::thread::Builder::new()
        .name(format!("flowrank-worker-{index}"))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                while let Ok(Work {
                    retune,
                    segment,
                    seal,
                }) = work_rx.recv()
                {
                    if let Some((lane, rate, spec)) = retune {
                        shard.retune(lane, rate, spec);
                    }
                    let lanes = run_shard(&mut shard, segment.as_deref(), seal.as_deref(), top_t);
                    // Before the ack, so the caller gets both back unshared.
                    drop((segment, seal));
                    if ack_tx.send(lanes).is_err() {
                        return;
                    }
                }
            }));
            if let Err(payload) = result {
                record_failure(&failure, index, payload.as_ref());
            }
        })
        .expect("spawn a flowrank helper thread");
    Helper { work, acks, thread }
}

/// The helpers of a `threads(n > 1)` monitor and the buffer the caller
/// fills for them. The caller's own shard stays with the engine and is lent
/// to every fork.
pub(crate) struct Fork {
    top_t: usize,
    helpers: Vec<Helper>,
    /// First panic recorded by any shard's `catch_unwind`.
    failure: FailureCell,
    /// The buffer being filled: unshared between forks.
    buffer: Arc<SegmentBuf>,
    /// Buffers forked to the helpers since the monitor was built.
    shipped: u64,
    /// A controller retune owed to a helper's lane: `(helper, work)`.
    retune: Option<(usize, (usize, f64, SamplerSpec))>,
}

impl Fork {
    /// Strides `lanes` over `threads` shards, spawns a helper for each
    /// shard but the first and returns that first one, the caller's.
    /// Called once from `MonitorBuilder::build`.
    pub(crate) fn spawn(lanes: Vec<Lane>, threads: usize, top_t: usize) -> (LaneShard, Self) {
        let mut strided: Vec<Vec<Lane>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, lane) in lanes.into_iter().enumerate() {
            strided[i % threads].push(lane);
        }
        let failure = FailureCell::default();
        let mut shards = strided.into_iter().map(LaneShard::new);
        let own = shards.next().expect("threads > 1");
        let helpers = shards
            .enumerate()
            .map(|(h, shard)| spawn_helper(h + 1, shard, top_t, &failure))
            .collect();
        let fork = Fork {
            top_t,
            helpers,
            failure,
            buffer: Arc::default(),
            shipped: 0,
            retune: None,
        };
        (own, fork)
    }

    /// Buffers forked to the helpers since the monitor was built.
    pub(crate) fn shipped(&self) -> u64 {
        self.shipped
    }

    /// Appends a within-bin segment to the buffer, classifying each packet
    /// into the bin's ground truth on the way (its key derived once, its
    /// flow id from the same probe), and forks every time the buffer
    /// reaches [`DISPATCH_CHUNK_PACKETS`]. What is left waits for later
    /// packets or the seal.
    pub(crate) fn append(
        &mut self,
        shard: &mut LaneShard,
        truth: &mut FlowTable<AnyFlowKey>,
        definition: FlowDefinition,
        batch: &PacketBatch,
        range: Range<usize>,
    ) -> Result<(), RuntimeFailure> {
        let mut start = range.start;
        while start < range.end {
            let buf = Arc::get_mut(&mut self.buffer).expect("every helper returned the buffer");
            let end = range
                .end
                .min(start + DISPATCH_CHUNK_PACKETS - buf.batch.len());
            buf.batch.extend_from_batch(batch, start..end);
            for i in start..end {
                buf.ids.push(truth.observe_id(
                    batch.flow_key(i, definition),
                    batch.timestamp(i),
                    batch.length(i),
                    batch.tcp_seq(i),
                ));
            }
            buf.flows = truth.flow_count();
            if buf.batch.len() == DISPATCH_CHUNK_PACKETS {
                self.fork(shard, None, &mut Vec::new())?;
            }
            start = end;
        }
        Ok(())
    }

    /// Closes the bin on every shard: forks what is buffered together with
    /// the bin's ranking, and appends every lane's report to `out` in lane
    /// order. Returns the ranking for the control step.
    pub(crate) fn seal(
        &mut self,
        shard: &mut LaneShard,
        ranking: Ranking,
        out: &mut Vec<LaneReport>,
    ) -> Result<Ranking, RuntimeFailure> {
        let ranking = Arc::new(ranking);
        self.fork(shard, Some(&ranking), out)?;
        Ok(Arc::try_unwrap(ranking).expect("every helper returned the ranking"))
    }

    /// Applies a controller decision to `lane`: at once when the caller's
    /// shard holds it, on its helper's next message otherwise.
    pub(crate) fn retune(
        &mut self,
        shard: &mut LaneShard,
        lane: usize,
        rate: f64,
        spec: SamplerSpec,
    ) {
        let threads = self.helpers.len() + 1;
        let (owner, position) = (lane % threads, lane / threads);
        if owner == 0 {
            shard.retune(position, rate, spec);
        } else {
            self.retune = Some((owner - 1, (position, rate, spec)));
        }
    }

    /// Hands the buffer (when it holds packets) and the seal to every
    /// helper, runs the caller's shard on them, and waits for every ack;
    /// at a seal, interleaves the shards' reports into `out`. Then the
    /// buffer is the caller's again, emptied.
    fn fork(
        &mut self,
        shard: &mut LaneShard,
        seal: Option<&Arc<Ranking>>,
        out: &mut Vec<LaneReport>,
    ) -> Result<(), RuntimeFailure> {
        let segment = (!self.buffer.batch.is_empty()).then(|| Arc::clone(&self.buffer));
        self.shipped += u64::from(segment.is_some());
        for (h, helper) in self.helpers.iter().enumerate() {
            let retune = self.retune.take_if(|(owner, _)| *owner == h);
            // A dead helper's ack channel reports it below.
            let _ = helper.work.send(Work {
                retune: retune.map(|(_, work)| work),
                segment: segment.clone(),
                seal: seal.cloned(),
            });
        }
        let own = catch_unwind(AssertUnwindSafe(|| {
            run_shard(shard, segment.as_deref(), seal.map(|r| &**r), self.top_t)
        }));
        drop(segment);
        let own = own.map_err(|payload| record_failure(&self.failure, 0, payload.as_ref()))?;
        let mut shards = vec![own.into_iter()];
        for (h, helper) in self.helpers.iter().enumerate() {
            // A helper's ack channel disconnects only after it recorded
            // its failure.
            let lanes = helper.acks.recv().map_err(|_| {
                self.failure
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .clone()
                    .unwrap_or(RuntimeFailure {
                        worker: h + 1,
                        message: "helper disconnected".to_string(),
                    })
            })?;
            shards.push(lanes.into_iter());
        }
        let lanes = shards.iter().map(ExactSizeIterator::len).sum();
        let threads = shards.len();
        out.extend((0..lanes).map(|i| shards[i % threads].next().expect("strided lanes")));
        let buf = Arc::get_mut(&mut self.buffer).expect("every helper returned the buffer");
        buf.batch.clear();
        buf.ids.clear();
        Ok(())
    }
}

impl Drop for Fork {
    fn drop(&mut self) {
        // Each helper leaves its loop once its work sender drops. Every
        // helper catches its own panic, so a poisoned monitor drops cleanly
        // too.
        for Helper { work, thread, .. } in self.helpers.drain(..) {
            drop(work);
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for Fork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fork")
            .field("helpers", &self.helpers.len())
            .field("shipped", &self.shipped)
            .finish_non_exhaustive()
    }
}
