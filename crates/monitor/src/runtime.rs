//! The lane runtime behind [`MonitorBuilder::threads`].
//!
//! A monitor built with `threads(n)`, `n > 1`, spawns `n − 1`
//! **persistent** helpers once, at `build()`; dropping the monitor joins
//! them. No lane has a fixed thread: each sits behind its own lock, and for
//! every buffer the caller publishes, the caller claims lanes from the
//! front and the helpers from the back until every lane has run it. So
//! `threads(n)` keeps `n` threads busy, the caller included, however the
//! lanes' costs differ:
//!
//! ```text
//!   caller: split bins, derive keys, classify the bin's ground truth (each
//!     │     packet's flow id from the same probe) into buffer k+1 …
//!     │
//!     │   published: buffer k (at a seal: the rest of the bin + ranking)
//!     │   ┌──────────────────────────────────────────────────────────┐
//!     │   │ lane 0 │ lane 1 │ …                     │ lane L−2 │ L−1 │
//!     │   └──────────────────────────────────────────────────────────┘
//!     │      ▲ caller claims from the front ▲     ▲ helpers claim from
//!     │        (when k+1 is full, or a seal)        the back (at once)
//!     ▼
//!   … k+1 full: help with k, wait for its last lane, publish k+1
//! ```
//!
//! The caller appends every within-bin segment, whatever its size, to one
//! of two fixed buffers of [`BUFFER_PACKETS`] packets and their flow ids.
//! When that buffer is full it finishes the published one (claims what is
//! left of it, then waits for the helpers' last lanes), publishes the full
//! one and fills the other. A one-record push is therefore a column
//! append, and a whole-bin batch is cut into full buffers. No packet takes
//! a lock: a lane takes its own, uncontended, once per buffer, and a claim
//! takes the claim lock for a few instructions.
//!
//! A seal is a barrier: the caller finishes the buffer in flight,
//! publishes what is left of the bin together with the bin's ranking,
//! helps, waits, and reads every lane's report back in lane order. So at
//! most one buffer is in flight, and every bin reaches the sink before the
//! call that closed it returns.
//!
//! # Determinism
//!
//! Reports are **bit-identical** to `threads(1)` because nothing
//! order-dependent is split: every lane sees every buffer in stream order,
//! whichever thread runs it, with its own RNG; the ground truth is one
//! table the caller classifies in stream order; every lane scores against
//! the one ranking, and its report lands in its own slot. The caller runs
//! the control step after the seal, as the serial engine does, and applies
//! a retune under the lane's lock before it publishes again.
//!
//! # Failure containment
//!
//! Every claimed lane runs under `catch_unwind`, on the caller or on a
//! helper. A panic is recorded, with the lane's index, in the claim lock's
//! failure cell, after which nothing more is claimed; the caller's wait
//! reads the cell, so a panicked lane never leaves it waiting. The monitor
//! converts the failure into
//! [`DriveError::WorkerPanicked`](crate::DriveError::WorkerPanicked).
//! `Drop` cancels the unclaimed lanes, tells the helpers to leave and joins
//! them.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use flowrank_core::metrics::GroundTruthRanking;
use flowrank_net::{AnyFlowKey, FlowDefinition, FlowTable, PacketBatch};

use crate::monitor::{Lane, Segment};
use crate::report::LaneReport;
use crate::spec::SamplerSpec;

/// What a lane's `catch_unwind` recorded: which lane panicked and the panic
/// payload's message. First failure wins.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeFailure {
    pub(crate) lane: usize,
    /// Carried for `{:?}` diagnostics (test failures, logs); the typed
    /// error surface exposes only the lane index and bin.
    #[allow(dead_code)]
    pub(crate) message: String,
}

/// Packets per published buffer. Within-bin segments of any size are
/// coalesced into buffers of this size, so a stream of tiny pushes costs
/// one publish per buffer rather than one per push. A Sec. 8 bin holds
/// ≈ 5,000 packets, and the caller classifies one buffer while the helpers
/// run the last only when a bin holds at least two.
const BUFFER_PACKETS: usize = 2048;

/// One decoded slice of the packet stream with the ground-truth flow id of
/// every packet, lent read-only to the lanes for one job.
struct SegmentBuf {
    batch: PacketBatch,
    /// Flow id of each packet in the bin's ground truth.
    ids: Vec<u32>,
    /// The truth's flow count once it observed the buffer's last packet.
    flows: usize,
}

impl SegmentBuf {
    /// An empty buffer with room for [`BUFFER_PACKETS`], reserved once, so
    /// memory does not depend on how the buffer is filled.
    fn reserved() -> Arc<Self> {
        Arc::new(SegmentBuf {
            batch: PacketBatch::with_capacity(BUFFER_PACKETS),
            ids: Vec::with_capacity(BUFFER_PACKETS),
            flows: 0,
        })
    }
}

type Ranking = GroundTruthRanking<AnyFlowKey>;

/// A lane and the report its last seal wrote, behind the lane's own lock.
struct Slot {
    lane: Lane,
    report: Option<LaneReport>,
}

/// Who asks for a lane: the caller claims from the front, helpers from the
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claimant {
    Caller,
    Helper,
}

/// The claim lock's state: the published job and its cursors.
#[derive(Default)]
struct Claims {
    /// The job's unclaimed lanes are `front..back`.
    front: usize,
    back: usize,
    /// The job's lanes that have not finished.
    pending: usize,
    /// The job: the buffer to offer (when it holds packets) and, at a seal,
    /// the ranking to score against.
    segment: Option<Arc<SegmentBuf>>,
    seal: Option<Arc<Ranking>>,
    /// The failure cell: the first lane panic. Once set, nothing more is
    /// claimed.
    failure: Option<RuntimeFailure>,
    /// Set by `Drop`: the helpers leave.
    shutdown: bool,
    #[cfg(test)]
    order: ClaimOrder,
}

/// Test seam: forces which side may claim a lane, so a test can run every
/// lane on the caller, every lane on the helpers, or alternate.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum ClaimOrder {
    /// Whoever asks first: the runtime's own order.
    #[default]
    Race,
    /// The caller claims every lane.
    Caller,
    /// The helpers claim every lane.
    Helpers,
    /// The caller and the helpers take turns, the caller first.
    Alternate,
}

#[cfg(test)]
impl ClaimOrder {
    /// Whether `claimant` may take the next lane of a job that has handed
    /// out `claimed` lanes.
    fn allows(self, claimant: Claimant, claimed: usize) -> bool {
        match self {
            ClaimOrder::Race => true,
            ClaimOrder::Caller => claimant == Claimant::Caller,
            ClaimOrder::Helpers => claimant == Claimant::Helper,
            ClaimOrder::Alternate => (claimant == Claimant::Caller) == claimed.is_multiple_of(2),
        }
    }
}

/// What the caller and the helpers share: the lanes, the claim lock and
/// its two wake-ups.
struct Shared {
    slots: Vec<Mutex<Slot>>,
    claims: Mutex<Claims>,
    /// Helpers wait here for a job or the shutdown.
    published: Condvar,
    /// The caller waits here for a job's last lane or a failure.
    finished: Condvar,
    top_t: usize,
}

/// Locks `mutex`. A lane that panicked poisons its lock, and the monitor
/// does no further work with it, so the poison carries nothing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Claims the next lane for `claimant`, if the job has one left for it.
    fn claim(&self, claims: &mut Claims, claimant: Claimant) -> Option<usize> {
        if claims.front == claims.back || claims.failure.is_some() {
            return None;
        }
        #[cfg(test)]
        {
            let claimed = claims.front + self.slots.len() - claims.back;
            if !claims.order.allows(claimant, claimed) {
                return None;
            }
        }
        let lane = match claimant {
            Claimant::Caller => {
                claims.front += 1;
                claims.front - 1
            }
            Claimant::Helper => {
                claims.back -= 1;
                claims.back
            }
        };
        // A forced order hands the next claim to the other side, which may
        // be waiting.
        #[cfg(test)]
        if claims.order != ClaimOrder::Race {
            self.published.notify_all();
            self.finished.notify_one();
        }
        Some(lane)
    }

    /// Claims and runs the job's lanes one at a time for as long as
    /// `claimant` can take one, and returns the claim lock. A helper wakes
    /// the caller after the job's last lane, or a failure.
    fn run_claims<'a>(
        &'a self,
        mut claims: MutexGuard<'a, Claims>,
        claimant: Claimant,
    ) -> MutexGuard<'a, Claims> {
        while let Some(lane) = self.claim(&mut claims, claimant) {
            let (segment, seal) = (claims.segment.clone(), claims.seal.clone());
            drop(claims);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                self.run_lane(lane, segment.as_deref(), seal.as_deref())
            }));
            // Before the count, so a finished job shares nothing.
            drop((segment, seal));
            claims = lock(&self.claims);
            match ran {
                Ok(()) => claims.pending -= 1,
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic payload".to_string());
                    claims
                        .failure
                        .get_or_insert(RuntimeFailure { lane, message });
                }
            }
            if claimant == Claimant::Helper && (claims.pending == 0 || claims.failure.is_some()) {
                self.finished.notify_one();
            }
        }
        claims
    }

    /// The work of one lane for one job: offers the buffer, then, at a
    /// seal, scores the lane into its slot and restarts it for the next bin.
    fn run_lane(&self, lane: usize, segment: Option<&SegmentBuf>, seal: Option<&Ranking>) {
        let mut slot = lock(&self.slots[lane]);
        let Slot { lane, report } = &mut *slot;
        if let Some(seg) = segment {
            lane.offer_batch(&Segment {
                batch: &seg.batch,
                range: 0..seg.batch.len(),
                ids: &seg.ids,
                flows: seg.flows,
                truth: None,
            });
        }
        if let Some(ranking) = seal {
            *report = Some(lane.close_bin(ranking, self.top_t));
        }
    }
}

/// A helper's life: run what it can claim of every job until the shutdown.
fn help(shared: &Shared) {
    let mut claims = lock(&shared.claims);
    loop {
        claims = shared.run_claims(claims, Claimant::Helper);
        if claims.shutdown {
            return;
        }
        claims = shared
            .published
            .wait(claims)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// The lanes and helpers of a `threads(n > 1)` monitor, and the two
/// buffers the caller fills for them in turn.
pub(crate) struct Runtime {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// The buffer being filled: the caller's alone.
    filling: Arc<SegmentBuf>,
    /// The other buffer: the published job's while it runs, empty after.
    published: Arc<SegmentBuf>,
    /// Buffers published since the monitor was built.
    shipped: u64,
}

impl Runtime {
    /// Puts every lane behind its own lock and spawns `threads − 1`
    /// helpers. Called once from `MonitorBuilder::build`.
    pub(crate) fn spawn(lanes: Vec<Lane>, threads: usize, top_t: usize) -> Self {
        let slots = lanes
            .into_iter()
            .map(|lane| Mutex::new(Slot { lane, report: None }))
            .collect();
        let shared = Arc::new(Shared {
            slots,
            claims: Mutex::default(),
            published: Condvar::new(),
            finished: Condvar::new(),
            top_t,
        });
        let helpers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flowrank-worker-{index}"))
                    .spawn(move || help(&shared))
                    .expect("spawn a flowrank helper thread")
            })
            .collect();
        Runtime {
            shared,
            helpers,
            filling: SegmentBuf::reserved(),
            published: SegmentBuf::reserved(),
            shipped: 0,
        }
    }

    /// Buffers published since the monitor was built.
    pub(crate) fn shipped(&self) -> u64 {
        self.shipped
    }

    /// Test seam: from now on, claims follow `order`.
    #[cfg(test)]
    pub(crate) fn force_order(&mut self, order: ClaimOrder) {
        lock(&self.shared.claims).order = order;
    }

    /// Appends a within-bin segment to the buffer being filled, classifying
    /// each packet into the bin's ground truth on the way (its key derived
    /// once, its flow id from the same probe), and publishes the buffer
    /// every time it reaches [`BUFFER_PACKETS`]. What is left waits for
    /// later packets or the seal.
    pub(crate) fn append(
        &mut self,
        truth: &mut FlowTable<AnyFlowKey>,
        definition: FlowDefinition,
        batch: &PacketBatch,
        range: Range<usize>,
    ) -> Result<(), RuntimeFailure> {
        let mut start = range.start;
        while start < range.end {
            let buf = Arc::get_mut(&mut self.filling).expect("the caller's buffer is unshared");
            let end = range.end.min(start + BUFFER_PACKETS - buf.batch.len());
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
            if buf.batch.len() == BUFFER_PACKETS {
                self.publish(None)?;
            }
            start = end;
        }
        Ok(())
    }

    /// Closes the bin on every lane: finishes the buffer in flight,
    /// publishes what is buffered together with the bin's ranking, helps,
    /// waits, and appends every lane's report to `out` in lane order.
    /// Returns the ranking for the control step.
    pub(crate) fn seal(
        &mut self,
        ranking: Ranking,
        out: &mut Vec<LaneReport>,
    ) -> Result<Ranking, RuntimeFailure> {
        let ranking = Arc::new(ranking);
        self.publish(Some(Arc::clone(&ranking)))?;
        self.finish()?;
        out.extend(
            self.shared
                .slots
                .iter()
                .map(|slot| lock(slot).report.take().expect("a seal scores every lane")),
        );
        Ok(Arc::try_unwrap(ranking).expect("a finished job shares nothing"))
    }

    /// Applies a controller decision to `lane`. The caller retunes only
    /// right after a seal, when no job is in flight.
    pub(crate) fn retune(&mut self, lane: usize, rate: f64, spec: SamplerSpec) {
        lock(&self.shared.slots[lane]).lane.retune(rate, spec);
    }

    /// Finishes the job in flight, then publishes the buffer being filled
    /// (when it holds packets) and `seal` as the next job, and takes the
    /// other buffer to fill.
    fn publish(&mut self, seal: Option<Arc<Ranking>>) -> Result<(), RuntimeFailure> {
        self.finish()?;
        std::mem::swap(&mut self.filling, &mut self.published);
        let segment = (!self.published.batch.is_empty()).then(|| Arc::clone(&self.published));
        self.shipped += u64::from(segment.is_some());
        let lanes = self.shared.slots.len();
        let mut claims = lock(&self.shared.claims);
        (claims.front, claims.back, claims.pending) = (0, lanes, lanes);
        (claims.segment, claims.seal) = (segment, seal);
        drop(claims);
        self.shared.published.notify_all();
        Ok(())
    }

    /// Claims the job's lanes that are left from the front, waits for the
    /// helpers' last ones, and takes the job back: the published buffer is
    /// the caller's again, emptied.
    fn finish(&mut self) -> Result<(), RuntimeFailure> {
        let shared = &*self.shared;
        let mut claims = lock(&shared.claims);
        loop {
            claims = shared.run_claims(claims, Claimant::Caller);
            if let Some(failure) = &claims.failure {
                return Err(failure.clone());
            }
            if claims.pending == 0 {
                break;
            }
            claims = shared
                .finished
                .wait(claims)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (claims.segment, claims.seal) = (None, None);
        drop(claims);
        let buf = Arc::get_mut(&mut self.published).expect("a finished job shares nothing");
        buf.batch.clear();
        buf.ids.clear();
        Ok(())
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // The unclaimed lanes of a job in flight are never run; a helper
        // finishes the lane it holds and leaves. A poisoned monitor drops
        // the same way: every lane panic was caught where it ran.
        let mut claims = lock(&self.shared.claims);
        claims.front = claims.back;
        claims.shutdown = true;
        drop(claims);
        self.shared.published.notify_all();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("lanes", &self.shared.slots.len())
            .field("helpers", &self.helpers.len())
            .field("shipped", &self.shipped)
            .finish_non_exhaustive()
    }
}
