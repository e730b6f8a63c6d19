//! The fault model of the drive pipeline: what can go wrong at a source or
//! sink, the recovery policy that decides what the monitor does about it,
//! and the health accounting that makes every recovery action observable.
//!
//! The types here back [`Monitor::try_drive`](crate::Monitor::try_drive),
//! the fault-aware form of [`Monitor::drive`](crate::Monitor::drive):
//!
//! * [`SourceError`] — what a source's poll
//!   ([`PacketSource::try_next_chunk`](crate::PacketSource::try_next_chunk))
//!   reports, classified by whether the stream can continue past it. A
//!   sink's failure is the `io::Error` its
//!   [`ReportSink::emit`](crate::ReportSink::emit) returns: it is never
//!   retried (`write_all` already retries `Interrupted`, and re-emitting a
//!   report after a partial write would duplicate its first bytes), so the
//!   first one aborts the drive.
//! * [`DrivePolicy`] — the recovery contract: skip-and-count malformed
//!   records, an error budget, a stall detector, and the
//!   [`TimestampPolicy`] for out-of-order packets.
//! * [`DriveStats`] — the health report: every recovery action is tallied
//!   and returned on completion *and* carried on every [`DriveError`], so a
//!   drive is auditable whether it finished or aborted.
//! * [`DriveError`] — the clean abort: exactly one variant per documented
//!   failure class, each carrying the stats accumulated up to the abort.

use std::io;
use std::time::Duration;

use flowrank_net::NetError;

/// Why a fallible packet source could not produce its next chunk.
///
/// The two variants encode the one distinction the drive loop needs: whether
/// the source has advanced past the failure and can be asked for the next
/// chunk ([`SourceError::Malformed`]) or the stream cannot make further
/// progress ([`SourceError::Fatal`]). The pcap sources report framing errors
/// (truncated record header/payload, oversized record) as `Fatal` because a
/// broken record boundary loses resynchronisation; `Malformed` is for
/// formats — and injected faults — where the source can skip the bad record
/// and carry on.
#[derive(Debug)]
pub enum SourceError {
    /// One record was malformed, but the source has advanced past it:
    /// calling
    /// [`try_next_chunk`](crate::PacketSource::try_next_chunk) again
    /// continues the stream. Under
    /// [`DrivePolicy::skip_malformed`] the drive loop counts the skip in
    /// [`DriveStats::malformed_skipped`] and keeps going.
    Malformed(NetError),
    /// The stream cannot make further progress (I/O failure, lost record
    /// boundary). Always aborts the drive with [`DriveError::Source`].
    Fatal(NetError),
}

impl SourceError {
    /// Whether the source can continue past this error (i.e. it is
    /// [`SourceError::Malformed`]).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, SourceError::Malformed(_))
    }

    /// The underlying decode/read error.
    pub(crate) fn net_error(&self) -> &NetError {
        match self {
            SourceError::Malformed(error) | SourceError::Fatal(error) => error,
        }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Malformed(error) => write!(f, "malformed record: {error}"),
            SourceError::Fatal(error) => write!(f, "source failed: {error}"),
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.net_error())
    }
}

/// What the monitor does with packets whose timestamps regress — the
/// explicit form of the push contract's tolerance knob
/// ([`DrivePolicy::timestamps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimestampPolicy {
    /// The historical default: debug builds fail fast on any regression
    /// (the `debug_assert` in `push_batch_into`); release builds silently fold
    /// the regressed packet into the current bin, uncounted. Costs nothing
    /// on the release hot path.
    #[default]
    DebugAssert,
    /// Fail fast in every build: `try_drive` returns
    /// [`DriveError::TimestampRegression`]; the infallible entry points
    /// panic. Costs one pass over each batch's timestamps.
    Reject,
    /// Fold the regressed packet into the current bin (the same tolerant
    /// behaviour release builds always had) but count every regression
    /// event into [`DriveStats::clamped_timestamps`] and the error budget.
    /// Skips the debug assert. Costs one pass over each batch's timestamps.
    ClampAndCount,
}

/// The recovery contract of [`Monitor::try_drive`](crate::Monitor::try_drive):
/// which faults are absorbed and when to give up.
///
/// [`DrivePolicy::default`] is **strict**: nothing is skipped, the first
/// fault aborts. [`DrivePolicy::resilient`] is the
/// keep-running preset for unattended operation; the fields are public and
/// most have a fluent setter.
///
/// ```
/// use flowrank_monitor::{DrivePolicy, TimestampPolicy};
/// use std::time::Duration;
///
/// let policy = DrivePolicy::resilient()
///     .idle_wait(Duration::from_millis(2))
///     .error_budget(100)
///     .timestamps(TimestampPolicy::ClampAndCount);
/// assert!(policy.skip_malformed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrivePolicy {
    /// Skip recoverable ([`SourceError::Malformed`]) records, counting each
    /// into [`DriveStats::malformed_skipped`], instead of aborting on the
    /// first one. [`SourceError::Fatal`] always aborts.
    pub skip_malformed: bool,
    /// Total recovery actions (skipped records + clamped timestamps) the drive absorbs before aborting with
    /// [`DriveError::ErrorBudgetExhausted`]. Checked after each chunk.
    pub error_budget: u64,
    /// Minimum *consecutive* idle polls (a source's
    /// [`PacketSource::try_next_chunk`](crate::PacketSource::try_next_chunk)
    /// answering an empty chunk: "no data right now, not end of stream")
    /// before a stall can abort with
    /// [`DriveError::SourceStalled`]. The detector trips only when **both**
    /// this floor and [`DrivePolicy::stall_timeout`] are exceeded — the
    /// poll floor keeps one long scheduler hiccup from counting as a stall,
    /// the wall-clock threshold keeps a fast poll loop from burning through
    /// the floor in microseconds (the PR 8 detector counted only polls, so
    /// every live source tripped it almost instantly).
    pub stall_polls: u64,
    /// How long an idle streak must last, in wall-clock time, before the
    /// stall detector aborts (together with the [`DrivePolicy::stall_polls`]
    /// floor). [`Duration::ZERO`] restores the PR 8 poll-count-only
    /// behaviour — useful for deterministic tests.
    pub stall_timeout: Duration,
    /// How long a drive loop — [`Monitor::try_drive`](crate::Monitor::try_drive)
    /// and [`Monitor::drive`](crate::Monitor::drive) alike — sleeps after
    /// each idle poll before asking the source again. [`Duration::ZERO`] busy-spins (the PR 8
    /// behaviour); the default paces idle polling at 1 ms so a quiet live
    /// source costs no CPU.
    pub idle_wait: Duration,
    /// What happens to packets whose timestamps regress.
    pub timestamps: TimestampPolicy,
}

impl Default for DrivePolicy {
    fn default() -> Self {
        DrivePolicy::strict()
    }
}

impl DrivePolicy {
    /// The strict policy (the default): no skipping, the first fault
    /// aborts; stalls abort once an idle streak spans both
    /// [`DrivePolicy::DEFAULT_STALL_POLLS`] consecutive polls and
    /// `DrivePolicy::DEFAULT_STALL_TIMEOUT` of wall time; timestamps keep
    /// the historical [`TimestampPolicy::DebugAssert`] behaviour.
    pub fn strict() -> Self {
        DrivePolicy {
            skip_malformed: false,
            error_budget: u64::MAX,
            stall_polls: Self::DEFAULT_STALL_POLLS,
            stall_timeout: Self::DEFAULT_STALL_TIMEOUT,
            idle_wait: Self::DEFAULT_IDLE_WAIT,
            timestamps: TimestampPolicy::DebugAssert,
        }
    }

    /// The keep-running preset for unattended operation: skip malformed
    /// records, clamp-and-count regressed timestamps, abort only after 1024
    /// absorbed recovery actions.
    pub fn resilient() -> Self {
        DrivePolicy {
            skip_malformed: true,
            error_budget: 1024,
            timestamps: TimestampPolicy::ClampAndCount,
            ..DrivePolicy::strict()
        }
    }

    /// Default minimum consecutive idle polls before a stall can abort.
    /// Small by design: since the detector gained its wall-clock threshold
    /// (`DrivePolicy::DEFAULT_STALL_TIMEOUT`) the poll floor only has to
    /// prove the loop really is polling, not bound the stall duration — PR
    /// 8's poll-count-only detector needed 65 536 here and still tripped in
    /// microseconds on a busy-spinning live source.
    pub const DEFAULT_STALL_POLLS: u64 = 8;

    /// Default wall-clock length an idle streak must last before a stall
    /// aborts.
    pub(crate) const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

    /// Default sleep between idle polls.
    pub(crate) const DEFAULT_IDLE_WAIT: Duration = Duration::from_millis(1);

    /// Sets [`DrivePolicy::error_budget`].
    pub fn error_budget(mut self, budget: u64) -> Self {
        self.error_budget = budget;
        self
    }

    /// Sets [`DrivePolicy::stall_polls`] (minimum 1).
    pub fn stall_polls(mut self, polls: u64) -> Self {
        self.stall_polls = polls.max(1);
        self
    }

    /// Sets [`DrivePolicy::stall_timeout`]. [`Duration::ZERO`] makes the
    /// stall detector purely poll-counted (the PR 8 semantics).
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Sets [`DrivePolicy::idle_wait`]. [`Duration::ZERO`] busy-spins.
    pub fn idle_wait(mut self, wait: Duration) -> Self {
        self.idle_wait = wait;
        self
    }

    /// Sets [`DrivePolicy::timestamps`].
    pub fn timestamps(mut self, policy: TimestampPolicy) -> Self {
        self.timestamps = policy;
        self
    }
}

/// The health report of one [`Monitor::drive`](crate::Monitor::drive) or
/// [`Monitor::try_drive`](crate::Monitor::try_drive): how much work was done
/// and every recovery action the policy absorbed. Returned on completion and
/// carried on every [`DriveError`], so aborted drives are auditable too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Non-empty chunks pulled from the source.
    pub chunks: u64,
    /// Packets pushed through the monitor.
    pub packets: u64,
    /// Bin reports successfully delivered to the sink.
    pub reports: u64,
    /// Recoverable malformed records skipped under
    /// [`DrivePolicy::skip_malformed`].
    pub malformed_skipped: u64,
    /// Timestamp regressions folded into the current bin under
    /// [`TimestampPolicy::ClampAndCount`].
    pub clamped_timestamps: u64,
    /// Idle polls observed (an empty chunk from a fallible source: "no
    /// data right now"). Not a recovery action — stalls are bounded separately by
    /// [`DrivePolicy::stall_polls`].
    pub idle_polls: u64,
}

/// The old name of [`DriveStats`] as the return type of
/// [`Monitor::drive`](crate::Monitor::drive), kept only while the `ledger`
/// package names it.
pub type DriveSummary = DriveStats;

impl DriveStats {
    /// Total recovery actions absorbed — the quantity the
    /// [`DrivePolicy::error_budget`] bounds.
    pub fn recoveries(&self) -> u64 {
        self.malformed_skipped + self.clamped_timestamps
    }
}

/// Why a [`Monitor::try_drive`](crate::Monitor::try_drive) aborted. Every
/// variant carries the [`DriveStats`] accumulated up to the abort in its
/// `stats` field.
#[derive(Debug)]
pub enum DriveError {
    /// The source failed: a fatal error, or a malformed record the policy
    /// does not skip.
    Source {
        /// The source-side failure.
        error: SourceError,
        /// Work done and recoveries absorbed before the abort.
        stats: DriveStats,
    },
    /// The sink's [`ReportSink::emit`](crate::ReportSink::emit) failed.
    Sink {
        /// The sink-side failure.
        error: io::Error,
        /// Work done and recoveries absorbed before the abort.
        stats: DriveStats,
    },
    /// Absorbed recovery actions exceeded [`DrivePolicy::error_budget`].
    ErrorBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
        /// Work done and recoveries absorbed before the abort; its
        /// [`DriveStats::recoveries`] exceeds `budget`.
        stats: DriveStats,
    },
    /// The source reported "no data" for at least
    /// [`DrivePolicy::stall_polls`] consecutive polls spanning at least
    /// [`DrivePolicy::stall_timeout`] of wall time — source starvation
    /// surfaced instead of hanging.
    SourceStalled {
        /// Consecutive idle polls observed when the detector tripped.
        idle_polls: u64,
        /// Wall-clock length of the idle streak when the detector tripped.
        stalled_for: Duration,
        /// Work done and recoveries absorbed before the abort.
        stats: DriveStats,
    },
    /// A batch violated the non-decreasing timestamp contract under
    /// [`TimestampPolicy::Reject`].
    TimestampRegression {
        /// The largest timestamp seen before the regression, in nanoseconds.
        prev_nanos: u64,
        /// The regressing timestamp, in nanoseconds.
        ts_nanos: u64,
        /// Work done and recoveries absorbed before the abort.
        stats: DriveStats,
    },
    /// A lane of a `threads(n > 1)` monitor panicked. The monitor is
    /// poisoned: further fallible calls return this error again, infallible
    /// calls panic, and dropping the monitor is safe.
    WorkerPanicked {
        /// Index of the lane whose work panicked, on whichever thread
        /// claimed it (the calling thread or a helper).
        lane: usize,
        /// The bin the monitor was filling when the failure surfaced.
        bin: u64,
        /// Work done and recoveries absorbed before the abort.
        stats: DriveStats,
    },
}

impl DriveError {
    pub(crate) fn stats_mut(&mut self) -> &mut DriveStats {
        match self {
            DriveError::Source { stats, .. }
            | DriveError::Sink { stats, .. }
            | DriveError::ErrorBudgetExhausted { stats, .. }
            | DriveError::SourceStalled { stats, .. }
            | DriveError::TimestampRegression { stats, .. }
            | DriveError::WorkerPanicked { stats, .. } => stats,
        }
    }
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Source { error, .. } => write!(f, "drive aborted: {error}"),
            DriveError::Sink { error, .. } => write!(f, "drive aborted: sink failed: {error}"),
            DriveError::ErrorBudgetExhausted { budget, stats } => write!(
                f,
                "drive aborted: error budget exhausted ({} recoveries > budget {budget})",
                stats.recoveries()
            ),
            DriveError::SourceStalled {
                idle_polls,
                stalled_for,
                ..
            } => write!(
                f,
                "drive aborted: source stalled ({idle_polls} consecutive idle polls over {:.3}s)",
                stalled_for.as_secs_f64()
            ),
            DriveError::TimestampRegression {
                prev_nanos,
                ts_nanos,
                ..
            } => write!(
                f,
                "drive aborted: timestamp regressed ({ts_nanos} ns after {prev_nanos} ns); \
                 the push contract requires non-decreasing timestamps"
            ),
            DriveError::WorkerPanicked { lane, bin, .. } => write!(
                f,
                "drive aborted: lane {lane} panicked while filling bin {bin}; \
                 the monitor is poisoned"
            ),
        }
    }
}

impl std::error::Error for DriveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriveError::Source { error, .. } => Some(error),
            DriveError::Sink { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_error_classifies_recoverability() {
        let soft = SourceError::Malformed(NetError::MalformedPacket { reason: "injected" });
        let hard = SourceError::Fatal(NetError::MalformedPacket {
            reason: "truncated pcap record header",
        });
        assert!(soft.is_recoverable());
        assert!(!hard.is_recoverable());
        assert!(soft.to_string().starts_with("malformed record:"));
        assert!(hard.to_string().starts_with("source failed:"));
    }

    #[test]
    fn default_policy_is_strict() {
        let policy = DrivePolicy::default();
        assert!(!policy.skip_malformed);
        assert_eq!(policy.error_budget, u64::MAX);
        assert_eq!(policy.timestamps, TimestampPolicy::DebugAssert);
        assert_eq!(policy, DrivePolicy::strict());
    }

    #[test]
    fn resilient_policy_absorbs_faults() {
        let policy = DrivePolicy::resilient();
        assert!(policy.skip_malformed);
        assert_eq!(policy.error_budget, 1024);
        assert_eq!(policy.timestamps, TimestampPolicy::ClampAndCount);
    }

    #[test]
    fn stats_recoveries_sum_the_budgeted_counters() {
        let stats = DriveStats {
            malformed_skipped: 2,
            clamped_timestamps: 4,
            idle_polls: 100,
            ..DriveStats::default()
        };
        assert_eq!(stats.recoveries(), 6, "idle polls are not recoveries");
    }

    #[test]
    fn drive_error_carries_and_displays_its_stats() {
        let stats = DriveStats {
            malformed_skipped: 7,
            ..DriveStats::default()
        };
        let error = DriveError::ErrorBudgetExhausted { budget: 5, stats };
        assert!(matches!(
            &error,
            DriveError::ErrorBudgetExhausted { stats, .. } if stats.malformed_skipped == 7
        ));
        assert!(error.to_string().contains("7 recoveries > budget 5"));
        let panic = DriveError::WorkerPanicked {
            lane: 2,
            bin: 9,
            stats: DriveStats::default(),
        };
        assert!(panic.to_string().contains("lane 2"));
        assert!(panic.to_string().contains("bin 9"));
    }
}
