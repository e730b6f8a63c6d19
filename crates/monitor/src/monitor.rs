//! The push-based streaming monitor.
//!
//! Every ingestion entry point — [`Monitor::push_batch_into`],
//! [`Monitor::drive`], [`Monitor::try_drive`] — is a loop over
//! [`Monitor::push_range_into`] and [`Monitor::finish_into`].
//! The monitor classifies each packet into the bin's ground-truth flow
//! table, whose probe also gives the packet's **flow id** (the flow's
//! position in that table), offers it to every sampling lane, counts
//! retained packets by flow id (`counts[id] += 1`, no second hash) and
//! feeds them to optional top-k backends, and closes measurement bins
//! automatically on timestamp boundaries. Closing a bin ranks the ground
//! truth **once** and scores every lane against that single ranking — with
//! `runs × rates` lanes this removes the `runs × rates` redundant
//! reclassifications the batch API used to pay. The lane work is written
//! once, in `Lane`: a monitor has one engine, which runs it in a loop over
//! its lanes on `threads(1)` and hands each lane to whichever thread claims
//! it otherwise, and the ground truth always lives with the calling
//! thread.

use std::ops::Range;
use std::time::Instant;

use flowrank_control::{BinObservation, ControllerSpec, RateController};
use flowrank_core::metrics::{ComparisonOutcome, GroundTruthRanking, SizedFlow};
use flowrank_net::{
    AnyFlowKey, CompactKey, FlowDefinition, FlowMap, FlowTable, PacketBatch, Timestamp,
};
use flowrank_sampling::SamplerStage;
use flowrank_stats::rng::{derive_seeds, Pcg64, SeedableRng};
use flowrank_topk::{FlowMemory, TopKTracker};

use crate::fault::{DriveError, DrivePolicy, DriveStats, TimestampPolicy};
use crate::pipeline::{Accepting, Collect, PacketSource, ReportSink};
use crate::report::{BinReport, ControllerTrail, LaneReport, TopKReport};
use crate::runtime::{Runtime, RuntimeFailure};
use crate::spec::{SamplerSpec, TopKSpec};

/// Salt mixed into a lane's seed for its top-k backend RNG, so that backend
/// coin flips (sample-and-hold) never perturb the sampling stream.
const TRACKER_SEED_SALT: u64 = 0x70B5_A17E_D00D_F00D;

/// Salt mixed into the master seed for the controlled lane, so attaching a
/// controller never perturbs the static lanes' derived seed streams.
const CONTROLLER_SEED_SALT: u64 = 0xC011_7801_5EED_CAFE;

/// Kept packets a lane counts per step of `touched`'s growth. Each step is
/// slack that `touched` holds beyond the ids it lists, so a longer one lets
/// its capacity outgrow the bin's flows.
const TOUCH_BLOCK: usize = 64;

/// Fluent builder for [`Monitor`].
///
/// ```
/// use flowrank_monitor::{MonitorBuilder, SamplerSpec};
/// use flowrank_net::{FlowDefinition, Timestamp};
///
/// let monitor = MonitorBuilder::new()
///     .flow_definition(FlowDefinition::FiveTuple)
///     .sampler(SamplerSpec::Random { rate: 0.01 })
///     .rates(&[0.01, 0.1])
///     .runs(30)
///     .bin_length(Timestamp::from_secs_f64(60.0))
///     .top_t(10)
///     .seed(2026)
///     .build();
/// assert_eq!(monitor.lane_count(), 60);
/// ```
#[derive(Debug, Clone)]
pub struct MonitorBuilder {
    flow_definition: FlowDefinition,
    sampler: SamplerSpec,
    rates: Option<Vec<f64>>,
    runs: usize,
    topk: Option<TopKSpec>,
    bin_length: Timestamp,
    top_t: usize,
    seed: u64,
    threads: usize,
    controller: Option<ControllerSpec>,
    drive_policy: DrivePolicy,
    /// The chaos hook's lane and packet limit.
    lane_panic: Option<(usize, u64)>,
    flow_budget: Option<usize>,
}

impl Default for MonitorBuilder {
    fn default() -> Self {
        MonitorBuilder {
            flow_definition: FlowDefinition::FiveTuple,
            sampler: SamplerSpec::Random { rate: 0.01 },
            rates: None,
            runs: 1,
            topk: None,
            bin_length: Timestamp::from_secs_f64(60.0),
            top_t: 10,
            seed: 0xF10A_4A9C,
            threads: 1,
            controller: None,
            drive_policy: DrivePolicy::strict(),
            lane_panic: None,
            flow_budget: None,
        }
    }
}

impl MonitorBuilder {
    /// Starts from the paper's defaults: 5-tuple flows, 1% random sampling,
    /// one run, 60-second bins, top 10.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flow definition used for both ground truth and sampled classification.
    pub fn flow_definition(mut self, definition: FlowDefinition) -> Self {
        self.flow_definition = definition;
        self
    }

    /// Sampling discipline template for every lane.
    pub fn sampler(mut self, spec: SamplerSpec) -> Self {
        self.sampler = spec;
        self
    }

    /// Fans the sampler template out across a grid of nominal rates (one
    /// group of [`MonitorBuilder::runs`] lanes per rate). Without this call
    /// the monitor runs the template at its own rate in a single group.
    pub fn rates(mut self, rates: &[f64]) -> Self {
        self.rates = Some(rates.to_vec());
        self
    }

    /// Independent sampling runs per rate (the paper uses 30).
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Attaches a memory-bounded top-k backend to every lane; the backend is
    /// fed exactly the packets the lane's sampler retains.
    ///
    /// The `flowrank-topk` trackers are keyed by 5-tuple, so the backend
    /// always tracks 5-tuple flows — even when the monitor's
    /// [`MonitorBuilder::flow_definition`] is a prefix definition, in which
    /// case the [`crate::TopKReport`] entries live in a different key space
    /// than the bin's prefix ranking.
    pub fn topk(mut self, spec: TopKSpec) -> Self {
        self.topk = Some(spec);
        self
    }

    /// Measurement-bin length. [`Timestamp::ZERO`] means a single unbounded
    /// bin closed only by [`Monitor::finish_into`].
    pub fn bin_length(mut self, bin_length: Timestamp) -> Self {
        self.bin_length = bin_length;
        self
    }

    /// Number of top flows the monitor reports.
    pub fn top_t(mut self, top_t: usize) -> Self {
        self.top_t = top_t;
        self
    }

    /// Master seed. Per-lane seeds are derived deterministically from it (and
    /// from each rate), so a monitor is reproducible bit-for-bit.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a closed-loop rate controller (`flowrank-control`): one
    /// extra *controlled* lane is appended after the static lanes, running
    /// the sampler template at the controller's initial rate. Each time a
    /// bin closes, the monitor derives a [`BinObservation`] from the bin's
    /// report and ground truth, feeds it to the controller, records the
    /// decision on [`BinReport::controller`], and — when the decided rate
    /// differs from the applied one — rebuilds the controlled lane's
    /// sampler at the new rate from the lane's fixed seed before the next
    /// bin's packets arrive.
    ///
    /// The control step runs single-threaded after lane scoring, and the
    /// controlled lane's seed is salted off the master seed, so attaching
    /// a controller neither perturbs the static lanes nor breaks the
    /// monitor's bit-identical-across-paths guarantees.
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.controller = Some(spec);
        self
    }

    /// Busy threads for batch processing, the calling thread included
    /// (default 1).
    ///
    /// Above 1, `build()` spawns `threads − 1` **persistent** helpers
    /// (joined when the monitor drops), and no lane has a fixed thread. The
    /// calling thread splits batches on bin boundaries, derives keys and
    /// classifies every packet into the bin's ground truth, which gives it
    /// a flow id, and appends everything it is given, from one-packet
    /// pushes to whole-bin batches, to one of two 2048-packet buffers of
    /// packets and flow ids. When that buffer is full the caller publishes
    /// it to the lanes and fills the other: the helpers claim lanes from the
    /// back and run the buffer through them while the caller classifies
    /// the next one, then claims what is left from the front and waits for
    /// the helpers' last lanes before it publishes again. A bin seal is a
    /// barrier: the caller ranks the truth once, publishes the rest of the
    /// bin with that ranking, every lane scores into its own slot on
    /// whichever thread claimed it, and the caller reads the reports into
    /// the [`BinReport`] in lane order and runs the control step. No packet
    /// takes a lock (each lane takes its own, uncontended, once per
    /// buffer), and memory stays flows + two buffers.
    ///
    /// Every lane still sees every packet in order with its own RNG, so
    /// reports are **bit-identical** across thread counts and ingestion
    /// paths (pinned by the `streaming_equivalence` and `worker_runtime`
    /// suites and all 216 scenario-conformance goldens). `0` means one
    /// thread per available CPU.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        self
    }

    /// Recovery policy governing [`Monitor::try_drive`]: which source faults
    /// are skipped, the error budget, the stall threshold, and how
    /// out-of-order timestamps are handled ([`TimestampPolicy`]). Defaults
    /// to [`DrivePolicy::strict`], which reproduces the historical fail-fast
    /// behaviour exactly. [`Monitor::drive`] runs the same loop with
    /// malformed records skipped and no error budget or stall abort, so
    /// only the policy's [`DrivePolicy::idle_wait`] and
    /// [`DrivePolicy::timestamps`] apply there.
    ///
    /// The policy never changes *what* the monitor computes — a fault-free
    /// run under any policy is bit-identical to the default.
    pub fn drive_policy(mut self, policy: DrivePolicy) -> Self {
        self.drive_policy = policy;
        self
    }

    /// Caps the monitor's flow state at `budget` flows — the ground truth's
    /// table and each lane's counts alike — evicting the coldest flows
    /// ([`flowrank_net::FlowTable::evict_to_budget`]) whenever a packet
    /// brings one of them to the high-water mark. This is the per-tenant
    /// memory budget behind the fleet layer: peak flow-state memory becomes
    /// `O(budget × lanes)` regardless of how many distinct flows a bin
    /// carries. Lanes still count by flow id: an eviction in the truth moves
    /// ids, so the engine carries every lane's counts through each move, and
    /// a lane keeps the count of a flow the truth evicted (by key, until the
    /// truth takes the flow back) exactly as a flow table of its own would.
    ///
    /// Eviction is space-saving-style *state* shedding: bin totals
    /// (`packets`, bytes) keep counting everything observed, only per-flow
    /// entries are dropped, and an evicted flow that returns restarts from
    /// zero in the table that evicted it. Victim order is deterministic
    /// (coldest first by packets, then bytes, then packed key), so budgeted
    /// reports are a pure function of the packet sequence and the budget —
    /// and the per-bin eviction count is carried on [`BinReport::evictions`]
    /// as an auditable, golden-pinnable trail. A budget changes *what* the
    /// monitor reports (flows below the cap's waterline disappear from
    /// rankings); it is a memory/fidelity trade-off, not a pure performance
    /// knob.
    ///
    /// Only the serial engine enforces budgets; combining `flow_budget`
    /// with [`MonitorBuilder::threads`]` > 1` panics at `build()`. (Fleet
    /// tenants are always serial — the fleet's own worker pool provides the
    /// parallelism.)
    pub fn flow_budget(mut self, budget: usize) -> Self {
        self.flow_budget = Some(budget.max(1));
        self
    }

    /// Chaos-testing hook: makes lane 0 panic once it has been offered more
    /// than `packets` packets. With `threads(n > 1)` the panic lands on
    /// whichever thread claimed lane 0 for that buffer and exercises the
    /// containment path ([`DriveError::WorkerPanicked`] naming lane 0,
    /// poisoned-but-droppable monitor); the chaos suite drives it through
    /// `flowrank_sim::faults`. Not for production use.
    pub fn inject_lane_panic_after(self, packets: u64) -> Self {
        self.inject_lane_panic(0, packets)
    }

    /// [`MonitorBuilder::inject_lane_panic_after`] on any lane.
    fn inject_lane_panic(mut self, lane: usize, packets: u64) -> Self {
        self.lane_panic = Some((lane, packets));
        self
    }

    /// Builds the monitor.
    pub fn build(self) -> Monitor {
        let mut lanes = Vec::new();
        let budget = self.flow_budget.map(FlowBudget::new);
        match &self.rates {
            None => {
                // Single group at the template's own rate; the lane seed is
                // the master seed, matching the legacy single-run engine.
                let seeds = derive_seeds(self.seed, self.runs);
                let rate_tag = self.sampler.nominal_rate();
                for (run, &derived) in seeds.iter().enumerate() {
                    let seed = if self.runs == 1 { self.seed } else { derived };
                    lanes.push(Lane::new(
                        &self.sampler,
                        rate_tag,
                        0,
                        self.topk.as_ref(),
                        run,
                        seed,
                        budget,
                    ));
                }
            }
            Some(rates) => {
                for (rate_id, &rate) in rates.iter().enumerate() {
                    // Same derivation the batch experiment always used, so
                    // fanned-out lanes reproduce its per-run streams exactly.
                    let seeds = derive_seeds(self.seed ^ rate.to_bits(), self.runs);
                    let spec = self.sampler.with_rate(rate);
                    // Lanes are tagged with the *requested* grid rate (and
                    // its index), not the spec's own nominal rate: rate-keyed
                    // aggregation must find its lanes even for disciplines
                    // whose retargeting is a no-op (smart sampling).
                    for (run, &seed) in seeds.iter().enumerate() {
                        lanes.push(Lane::new(
                            &spec,
                            rate,
                            rate_id,
                            self.topk.as_ref(),
                            run,
                            seed,
                            budget,
                        ));
                    }
                }
            }
        }
        let controller = self.controller.map(|spec| {
            // The controlled lane rides after the static grid with its own
            // rate_id, so rate-keyed aggregation (and the RateCurve sink)
            // sees it as one more rate group rather than conflating it
            // with a static rate it happens to pass through.
            let rate_id = lanes.last().map_or(0, |lane| lane.rate_id + 1);
            let initial_rate = spec.initial_rate();
            let lane_spec = self.sampler.with_rate(initial_rate);
            let lane_index = lanes.len();
            lanes.push(Lane::new(
                &lane_spec,
                initial_rate,
                rate_id,
                self.topk.as_ref(),
                0,
                self.seed ^ CONTROLLER_SEED_SALT,
                budget,
            ));
            ControllerState {
                controller: spec.build(),
                lane: lane_index,
                template: self.sampler,
                applied_rate: initial_rate,
                prev_top: Vec::new(),
                observation: BinObservation::default(),
            }
        });
        if let Some((lane, limit)) = self.lane_panic {
            if let Some(lane) = lanes.get_mut(lane) {
                lane.panic_after = Some(limit);
            }
        }
        let threads = self.threads.max(1);
        let lane_count = lanes.len();
        let (shard, runtime) = if threads > 1 {
            assert!(
                budget.is_none(),
                "flow_budget requires threads(1): budgets are enforced by the \
                 serial engine (fleet tenants parallelise at the fleet level)"
            );
            let runtime = Runtime::spawn(lanes, threads, self.top_t);
            (LaneShard::new(Vec::new()), Some(Box::new(runtime)))
        } else {
            (LaneShard::new(lanes), None)
        };
        let engine = Engine {
            truth: FlowTable::new(),
            flow_budget: budget,
            evictions: 0,
            shard,
            controller,
            ids: Vec::new(),
            evicted: Vec::new(),
            segments: 0,
            report: BinReport::default(),
            runtime,
        };
        Monitor {
            flow_definition: self.flow_definition,
            bin_length: self.bin_length,
            top_t: self.top_t,
            engine,
            lane_count,
            current_bin: 0,
            saw_packet: false,
            last_ts_nanos: None,
            drive_policy: self.drive_policy,
            clamped_timestamps: 0,
            delivered: 0,
            poisoned: None,
        }
    }
}

/// Closed-loop state riding on the monitor: the controller itself plus
/// everything needed to derive its per-bin observation and retune the
/// controlled lane.
#[derive(Debug)]
struct ControllerState {
    controller: Box<dyn RateController + Send>,
    /// Index of the controlled lane in the monitor's lane list.
    lane: usize,
    /// Sampler template re-targeted (`SamplerSpec::with_rate`) at every
    /// retune.
    template: SamplerSpec,
    /// Rate the controlled lane is currently running.
    applied_rate: f64,
    /// True top-t keys of the previous bin, backing the churn signal.
    prev_top: Vec<AnyFlowKey>,
    /// Recycled observation buffer (its `top_sizes` vector in particular),
    /// so steady-state control steps stay allocation-free.
    observation: BinObservation,
}

impl ControllerState {
    /// The per-bin control step, run on the calling thread after every lane
    /// is scored, so controller decisions stay a pure function of the
    /// report stream at every thread count: derives the
    /// [`BinObservation`] from the controlled lane's scored report, the
    /// bin's packet and flow counts and the top of the bin's still-live
    /// ranking ([`GroundTruthRanking::top`], which sorts nothing), marks
    /// the lane controlled, and returns the decision trail plus — when the
    /// decided rate differs from the applied one — the rate tag and
    /// re-targeted sampler spec the controlled lane must be rebuilt with
    /// before the next bin's packets.
    fn step(
        &mut self,
        bin_index: u64,
        packets: u64,
        flows: usize,
        lane_report: &mut LaneReport,
        truth: &GroundTruthRanking<AnyFlowKey>,
        top_t: usize,
    ) -> (ControllerTrail, Option<(f64, SamplerSpec)>) {
        lane_report.controlled = true;
        let observation = &mut self.observation;
        observation.bin_index = bin_index;
        observation.applied_rate = self.applied_rate;
        observation.packets = packets;
        observation.flows = flows as u64;
        observation.kept_packets = lane_report.sampled_packets;
        observation.ranking_swaps = lane_report.outcome.ranking_swaps;
        observation.ranking_pairs = lane_report.outcome.ranking_pairs;
        observation.missed_top_flows = lane_report.outcome.missed_top_flows;
        // Top t+1 true sizes: every adjacent top-t pair, including the
        // boundary pair against the first flow below the cut.
        observation.top_sizes.clear();
        observation.top_sizes.extend(truth.top().map(|f| f.packets));
        let top = truth.top().take(top_t);
        observation.top_churn = if self.prev_top.is_empty() || top.len() == 0 {
            0.0
        } else {
            let changed = top
                .clone()
                .filter(|f| !self.prev_top.contains(&f.key))
                .count();
            changed as f64 / top.len() as f64
        };
        self.prev_top.clear();
        self.prev_top.extend(top.map(|f| f.key));

        let decision = self.controller.observe(observation);
        let trail = ControllerTrail {
            controller: self.controller.name(),
            lane: self.lane,
            applied_rate: self.applied_rate,
            decided_rate: decision.rate,
            swapped_fraction: observation.swapped_fraction(),
            top_churn: observation.top_churn,
        };
        let retune = (decision.rate != self.applied_rate).then(|| {
            self.applied_rate = decision.rate;
            (decision.rate, self.template.with_rate(decision.rate))
        });
        (trail, retune)
    }
}

/// A resolved flow-table cap ([`MonitorBuilder::flow_budget`]): evict down
/// to `cap` whenever a table reaches `high_water`.
///
/// The check runs after every observed packet, so the eviction schedule is
/// a pure function of the packet sequence — independent of how callers
/// chunked the stream — while the 50% hysteresis band keeps the amortized
/// cost at one sort per `cap / 2` new flows rather than one per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowBudget {
    cap: usize,
    high_water: usize,
}

impl FlowBudget {
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlowBudget {
            cap,
            // At least one entry of slack so a freshly evicted table can
            // always admit the next new flow without immediately re-sorting.
            high_water: cap + (cap / 2).max(1),
        }
    }

    /// The configured cap (eviction low-water mark).
    pub(crate) fn cap(self) -> usize {
        self.cap
    }

    /// Whether a table holding `flows` entries must evict down to the cap.
    #[inline]
    fn binds(self, flows: usize) -> bool {
        flows >= self.high_water
    }
}

/// A lane's sampled sizes by the bin's flow ids: `counts[id] += 1` per kept
/// packet, on a vector recycled across bins, plus the ids of first keeps.
#[derive(Debug, Default)]
struct IdCounts {
    /// Sampled size of every flow id seen so far in the bin; 0 outside
    /// `touched`. A lane counts at most `u32::MAX` packets of one flow per
    /// bin.
    counts: Vec<u32>,
    /// The ids with a non-zero count, once each; an unbudgeted lane lists
    /// them in first-keep order.
    touched: Vec<u32>,
    /// Packets counted in the bin.
    packets: u64,
}

impl IdCounts {
    /// The dense definition, `compare_with`, over the same counts looked up
    /// by key — what debug builds check every lane's seal against.
    fn dense_outcome(&self, truth: &GroundTruthRanking<AnyFlowKey>) -> ComparisonOutcome {
        let sizes: FlowMap<AnyFlowKey, u64> = self
            .touched
            .iter()
            .map(|&id| {
                let key = truth.flows()[truth.rank_of_id(id)].key;
                (key, u64::from(self.counts[id as usize]))
            })
            .collect();
        truth.compare_with(|key| sizes.get(key).copied().unwrap_or(0))
    }

    /// Zeroes what the bin touched, keeping the allocation.
    fn clear(&mut self) {
        for &id in &self.touched {
            self.counts[id as usize] = 0;
        }
        self.touched.clear();
        self.packets = 0;
    }
}

/// What a lane of a budgeted monitor ([`MonitorBuilder::flow_budget`])
/// keeps besides its counts, so that it holds, key for key, what a flow
/// table of its own under the same cap would: per-id bytes for its own
/// victim order, and the counts of flows the truth evicted.
///
/// The truth's evictions move its flow ids. The engine applies each move
/// to every lane, and a flow leaving the truth while the lane counts it
/// becomes an *orphan*, kept by packed key. When the truth takes the flow
/// back under a new id, the orphan's count re-attaches: at the lane's first
/// keep of the new id, or at the seal if the lane keeps none of its new
/// packets. Orphans the truth does not hold at the seal count as sampled
/// flows and score nothing, as a key the truth no longer knows.
#[derive(Debug)]
struct CappedCounts {
    budget: FlowBudget,
    /// Bytes kept of every flow id; 0 where the count is 0.
    bytes: Vec<u64>,
    /// `(packets, bytes)` of each flow the truth evicted while the lane
    /// counted it.
    orphans: FlowMap<AnyFlowKey, (u32, u64)>,
    /// Orphans the truth did not hold at the seal.
    unheld: usize,
}

impl CappedCounts {
    /// Counts the kept packets, re-attaching an orphan at its flow's first
    /// keep and evicting to the cap whenever the lane reaches its
    /// high-water mark. Returns the lane's evictions.
    fn count(&mut self, lane: &mut IdCounts, kept: &[u32], seg: &Segment) -> u64 {
        let truth = seg.truth.expect("budgeted lanes run on the serial engine");
        if self.bytes.len() < seg.flows {
            self.bytes.resize(seg.flows, 0);
        }
        let mut evictions = 0;
        for &i in kept {
            let id = seg.ids[i as usize - seg.range.start] as usize;
            if lane.counts[id] == 0 {
                lane.touched.push(id as u32);
                if !self.orphans.is_empty() {
                    if let Some((packets, bytes)) = self.orphans.remove(&truth.key_at(id as u32)) {
                        lane.counts[id] = packets;
                        self.bytes[id] = bytes;
                    }
                }
            }
            lane.counts[id] += 1;
            self.bytes[id] += u64::from(seg.batch.length(i as usize));
            if self.budget.binds(lane.touched.len() + self.orphans.len()) {
                evictions += self.evict(lane, truth);
            }
        }
        evictions
    }

    /// Evicts the lane's coldest flows, orphans included, down to the cap:
    /// ascending packets, then bytes, then packed key, as
    /// [`FlowTable::evict_to_budget`] picks them.
    fn evict(&mut self, lane: &mut IdCounts, truth: &FlowTable<AnyFlowKey>) -> u64 {
        let held = lane.touched.len() + self.orphans.len();
        let excess = held - self.budget.cap;
        let live = lane.touched.iter().map(|&id| {
            let (packets, bytes) = (lane.counts[id as usize], self.bytes[id as usize]);
            (packets, bytes, truth.key_at(id).pack(), Some(id))
        });
        let orphans = self
            .orphans
            .iter()
            .map(|(key, &(packets, bytes))| (packets, bytes, key.pack(), None));
        let mut victims: Vec<_> = live.chain(orphans).collect();
        victims.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        for &(_, _, packed, id) in &victims[..excess] {
            match id {
                Some(id) => {
                    lane.counts[id as usize] = 0;
                    self.bytes[id as usize] = 0;
                }
                None => {
                    self.orphans.remove(&AnyFlowKey::unpack(packed));
                }
            }
        }
        lane.touched.retain(|&id| lane.counts[id as usize] != 0);
        excess as u64
    }

    /// Applies the truth's evictions, `(id, key, last)` in the order
    /// [`FlowTable::evict_to_budget_with`] made them: flow `key` left `id`,
    /// and the truth's last entry, at `last`, took its place when
    /// `id < last`. Then re-lists the touched ids among the `flows` kept.
    fn truth_evicted(
        &mut self,
        lane: &mut IdCounts,
        evicted: &[(u32, AnyFlowKey, u32)],
        flows: usize,
    ) {
        for &(id, key, last) in evicted {
            let (id, last) = (id as usize, last as usize);
            let packets = std::mem::take(&mut lane.counts[id]);
            let bytes = std::mem::take(&mut self.bytes[id]);
            if packets > 0 {
                self.orphans.insert(key, (packets, bytes));
            }
            if id < last {
                lane.counts[id] = std::mem::take(&mut lane.counts[last]);
                self.bytes[id] = std::mem::take(&mut self.bytes[last]);
            }
        }
        lane.touched.clear();
        let touched = (0..flows as u32).filter(|&id| lane.counts[id as usize] != 0);
        lane.touched.extend(touched);
    }

    /// Re-attaches, at the seal, every orphan the truth holds again (the
    /// lane kept none of its packets since, so the id's count is 0) and
    /// counts the rest as `unheld`.
    fn reattach(&mut self, lane: &mut IdCounts, truth: &FlowTable<AnyFlowKey>) {
        for (key, &(packets, _)) in self.orphans.iter() {
            match truth.id_of(&key) {
                Some(id) => {
                    debug_assert_eq!(lane.counts[id as usize], 0, "orphan of a kept flow");
                    lane.counts[id as usize] = packets;
                    lane.touched.push(id);
                }
                None => self.unheld += 1,
            }
        }
        self.orphans.clear();
    }

    /// Zeroes the bytes of what the bin touched.
    fn clear(&mut self, lane: &IdCounts) {
        for &id in &lane.touched {
            self.bytes[id as usize] = 0;
        }
    }
}

/// One packet segment as every lane sees it: `batch[range]`, with the
/// ground-truth flow id of each packet at `ids[i - range.start]`, and the
/// truth's flow count once it observed the segment. A budgeted monitor
/// also lends its lanes the truth, to read flow keys from.
pub(crate) struct Segment<'a> {
    pub(crate) batch: &'a PacketBatch,
    pub(crate) range: Range<usize>,
    pub(crate) ids: &'a [u32],
    pub(crate) flows: usize,
    pub(crate) truth: Option<&'a FlowTable<AnyFlowKey>>,
}

/// One independent sampling pipeline inside the monitor: a sampler + RNG
/// stage, the sampled sizes it counts by flow id, and an optional top-k
/// backend.
pub(crate) struct Lane {
    spec: SamplerSpec,
    rate: f64,
    rate_id: usize,
    run: usize,
    seed: u64,
    stage: SamplerStage<Pcg64>,
    counts: IdCounts,
    /// Set on the lanes of a budgeted monitor.
    capped: Option<CappedCounts>,
    /// Boxed so a lane without a backend stays one pointer wide (a fleet
    /// holds thousands of lanes); concrete so the per-packet call is static.
    tracker: Option<Box<FlowMemory>>,
    tracker_rng: Pcg64,
    /// Per-lane scratch for the kept-packet indices of one batch segment;
    /// owned by the lane so lanes can run on worker threads without sharing.
    kept: Vec<u32>,
    /// Chaos hook ([`MonitorBuilder::inject_lane_panic_after`]): panic once
    /// more than this many packets have been offered to the lane.
    panic_after: Option<u64>,
    /// Packets offered so far, counted only when the chaos hook is armed.
    observed: u64,
    /// Flows this lane's own cap evicted in the current bin, drained by
    /// the engine at each seal.
    evictions: u64,
}

impl Lane {
    fn new(
        spec: &SamplerSpec,
        rate_tag: f64,
        rate_id: usize,
        topk: Option<&TopKSpec>,
        run: usize,
        seed: u64,
        flow_budget: Option<FlowBudget>,
    ) -> Self {
        Lane {
            spec: *spec,
            rate: rate_tag,
            rate_id,
            run,
            seed,
            stage: SamplerStage::new(spec.build(seed), Pcg64::seed_from_u64(seed)),
            counts: IdCounts::default(),
            capped: flow_budget.map(|budget| CappedCounts {
                budget,
                bytes: Vec::new(),
                orphans: FlowMap::new(),
                unheld: 0,
            }),
            tracker: topk.map(|&t| Box::new(FlowMemory::new(t))),
            tracker_rng: Pcg64::seed_from_u64(seed ^ TRACKER_SEED_SALT),
            kept: Vec::new(),
            panic_after: None,
            observed: 0,
            evictions: 0,
        }
    }

    /// Drains the lane's eviction count for the closing bin.
    fn take_evictions(&mut self) -> u64 {
        std::mem::take(&mut self.evictions)
    }

    /// Offers a segment to the lane in one call: the sampler stage appends
    /// the indices it keeps — skipping directly from keep to keep for
    /// skip-capable samplers — and only the retained packets are counted
    /// and reach the top-k backend.
    pub(crate) fn offer_batch(&mut self, seg: &Segment) {
        let (batch, range) = (seg.batch, &seg.range);
        if let Some(limit) = self.panic_after {
            self.observed += range.len() as u64;
            if self.observed > limit {
                panic!("injected lane panic after {limit} packets");
            }
        }
        self.kept.clear();
        self.stage.admit_batch(batch, range.clone(), &mut self.kept);
        let lane = &mut self.counts;
        if lane.counts.len() < seg.flows {
            lane.counts.resize(seg.flows, 0);
        }
        match &mut self.capped {
            // Branch-free, as in `Rng::bernoulli_indices`: every kept id is
            // written at `touched`'s end, and the end only moves past it on
            // the flow's first keep. About half the keeps of a Sec. 8 bin
            // are first keeps, so a branch on it would mispredict often.
            None => {
                for block in self.kept.chunks(TOUCH_BLOCK) {
                    let mut end = lane.touched.len();
                    lane.touched.resize(end + block.len(), 0);
                    for &i in block {
                        let id = seg.ids[i as usize - range.start];
                        let count = &mut lane.counts[id as usize];
                        lane.touched[end] = id;
                        end += usize::from(*count == 0);
                        *count += 1;
                    }
                    lane.touched.truncate(end);
                }
            }
            Some(capped) => self.evictions += capped.count(lane, &self.kept, seg),
        }
        lane.packets += self.kept.len() as u64;
        if let Some(tracker) = &mut self.tracker {
            for &i in &self.kept {
                tracker.observe(&batch.five_tuple(i as usize), &mut self.tracker_rng);
            }
        }
    }

    /// Scores the lane against the bin's prepared ground truth and restarts
    /// it for the next bin: the sparse kernel reads the counts as they are.
    /// Debug builds check `touched` against the counts, and every outcome
    /// against the dense definition.
    pub(crate) fn close_bin(
        &mut self,
        truth: &GroundTruthRanking<AnyFlowKey>,
        top_t: usize,
    ) -> LaneReport {
        let lane = &mut self.counts;
        debug_assert_eq!(
            lane.touched.len(),
            lane.counts.iter().filter(|&&count| count != 0).count(),
            "`touched` does not list each counted flow once"
        );
        let outcome = truth.compare_sparse(&lane.counts, &lane.touched);
        debug_assert_eq!(
            outcome,
            lane.dense_outcome(truth),
            "sparse kernel disagrees with the dense definition"
        );
        let (mut sampled_flows, sampled_packets) = (lane.touched.len(), lane.packets);
        if let Some(capped) = &mut self.capped {
            sampled_flows += std::mem::take(&mut capped.unheld);
            capped.clear(lane);
        }
        lane.clear();
        let topk = self.tracker.as_ref().map(|tracker| TopKReport {
            backend: tracker.name(),
            entries: tracker.top(top_t),
            memory_entries: tracker.memory_entries(),
        });
        let report = LaneReport {
            rate: self.rate,
            rate_id: self.rate_id,
            run: self.run,
            sampler: self.spec.name(),
            sampled_flows,
            sampled_packets,
            outcome,
            topk,
            controlled: false,
        };
        // Every bin restarts the lane's random stream from its seed — the
        // paper's methodology treats bins as independent measurements, and
        // this is what makes streaming results bit-identical to the batch
        // engine, which reseeds per bin.
        self.stage.start_interval(Pcg64::seed_from_u64(self.seed));
        if let Some(tracker) = &mut self.tracker {
            tracker.reset();
            self.tracker_rng = Pcg64::seed_from_u64(self.seed ^ TRACKER_SEED_SALT);
        }
        report
    }

    /// Rebuilds the lane's sampler at a controller-decided rate from the
    /// lane's fixed seed. `close_bin` already reseeds every lane per bin,
    /// so this is the same restart it would have performed — just at a
    /// different rate. `rate_tag` is the decided rate the lane is labelled
    /// with (it can differ from the spec's own nominal rate for disciplines
    /// whose retargeting is a no-op, e.g. smart sampling).
    pub(crate) fn retune(&mut self, rate_tag: f64, spec: SamplerSpec) {
        self.rate = rate_tag;
        self.spec = spec;
        self.stage = SamplerStage::new(self.spec.build(self.seed), Pcg64::seed_from_u64(self.seed));
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("spec", &self.spec)
            .field("run", &self.run)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Push-based streaming monitor: sampling, classification and ranking
/// metrics in one pipeline.
///
/// Drive it from a [`PacketSource`] into a [`ReportSink`] with
/// [`Monitor::drive`], or feed batches in timestamp order with
/// [`Monitor::push_batch_into`] and close the last bin with
/// [`Monitor::finish_into`].
#[derive(Debug)]
pub struct Monitor {
    flow_definition: FlowDefinition,
    bin_length: Timestamp,
    top_t: usize,
    engine: Engine,
    /// Fixed at `build()`: the lanes move into the engine (on
    /// `threads(n > 1)`, into its runtime).
    lane_count: usize,
    current_bin: u64,
    saw_packet: bool,
    /// Largest timestamp pushed so far — backs the debug assertion that the
    /// documented non-decreasing push contract holds across calls.
    last_ts_nanos: Option<u64>,
    /// Recovery policy for the fallible entry points
    /// ([`MonitorBuilder::drive_policy`]).
    drive_policy: DrivePolicy,
    /// Lifetime count of timestamp regressions absorbed under
    /// [`TimestampPolicy::ClampAndCount`].
    clamped_timestamps: u64,
    /// Lifetime count of reports a sink took, for [`DriveStats::reports`].
    delivered: u64,
    /// Set once a lane panicked: `(lane, bin)` of the first detected
    /// failure. A poisoned monitor returns the same
    /// [`DriveError::WorkerPanicked`] from every fallible call (infallible
    /// entry points panic — once, cleanly) and drops safely.
    poisoned: Option<(usize, u64)>,
}

/// The lanes of a `threads(1)` monitor, and the per-bin lane work of the
/// paper's Sec. 8 experiment over them: offer every segment to every lane
/// and, at the seal, score each lane against the bin's one ranking. On
/// `threads(n > 1)` the lanes live in the runtime instead, one lock each,
/// and this shard is empty.
#[derive(Debug)]
pub(crate) struct LaneShard {
    lanes: Vec<Lane>,
}

impl LaneShard {
    pub(crate) fn new(lanes: Vec<Lane>) -> Self {
        LaneShard { lanes }
    }

    /// Offers the segment to every lane, in lane order.
    #[inline]
    pub(crate) fn observe(&mut self, seg: &Segment) {
        for lane in &mut self.lanes {
            lane.offer_batch(seg);
        }
    }

    /// Scores every lane against the bin's ranking, appending the reports in
    /// lane order, and restarts the lanes for the next bin.
    pub(crate) fn score(
        &mut self,
        truth: &GroundTruthRanking<AnyFlowKey>,
        top_t: usize,
        out: &mut Vec<LaneReport>,
    ) {
        out.extend(
            self.lanes
                .iter_mut()
                .map(|lane| lane.close_bin(truth, top_t)),
        );
    }

    /// Runs `f` on the capped state and the counts of every lane of a
    /// budgeted monitor.
    fn each_capped(&mut self, mut f: impl FnMut(&mut CappedCounts, &mut IdCounts)) {
        for lane in &mut self.lanes {
            if let Some(capped) = &mut lane.capped {
                f(capped, &mut lane.counts);
            }
        }
    }

    /// Applies a controller decision to lane `lane`.
    pub(crate) fn retune(&mut self, lane: usize, rate_tag: f64, spec: SamplerSpec) {
        self.lanes[lane].retune(rate_tag, spec);
    }

    /// Drains the closing bin's lane eviction count.
    fn take_evictions(&mut self) -> u64 {
        self.lanes.iter_mut().map(Lane::take_evictions).sum()
    }
}

/// A bin's ground-truth flow sizes in flow-id order, the population
/// [`GroundTruthRanking::new`] selects the top from and keeps in that order.
fn sized_flows(table: &FlowTable<AnyFlowKey>) -> Vec<SizedFlow<AnyFlowKey>> {
    table
        .iter_sizes()
        .map(|(key, packets)| SizedFlow { key, packets })
        .collect()
}

/// The monitor's engine: the bin's ground truth, the serial engine's lanes
/// and the controller, all driven on the calling thread, or on a
/// `threads(n > 1)` monitor the runtime that holds the lanes and its
/// helpers. A `threads(1)` monitor has no helpers, offers each segment in
/// place and pays zero synchronisation cost.
#[derive(Debug)]
struct Engine {
    truth: FlowTable<AnyFlowKey>,
    /// Per-table flow cap ([`MonitorBuilder::flow_budget`]), enforced
    /// packet-by-packet so eviction points are independent of how the
    /// stream was chunked.
    flow_budget: Option<FlowBudget>,
    /// Ground-truth entries evicted so far in the current bin; joined with
    /// the per-lane counts into [`BinReport::evictions`] at each seal.
    evictions: u64,
    shard: LaneShard,
    controller: Option<ControllerState>,
    /// Reusable buffers for a segment's flow ids and for one eviction's
    /// `(id, key, last)` moves.
    ids: Vec<u32>,
    evicted: Vec<(u32, AnyFlowKey, u32)>,
    /// Within-bin segments processed since the monitor was built.
    segments: u64,
    /// Report buffer recycled across bins: the lanes vector is reused, so in
    /// steady state a sink-driven monitor closes bins without allocating
    /// the report shell (only attached top-k backends still build their
    /// per-bin entry lists).
    report: BinReport,
    /// The lanes, helpers and buffers of a `threads(n > 1)` monitor; boxed,
    /// so a `threads(1)` monitor (a fleet holds thousands) carries one
    /// pointer.
    runtime: Option<Box<Runtime>>,
}

impl Engine {
    /// Classifies one within-bin segment into the ground truth — deriving
    /// each packet's key and taking its flow id from the same probe — and
    /// offers it to every lane: in place on a `threads(1)` monitor, through
    /// the runtime's buffers otherwise. In a budgeted monitor a packet that
    /// brings the truth to its high-water mark first has the lanes take the
    /// packets up to it, while their ids still hold, and then the truth's
    /// evictions move the lanes' counts.
    fn observe(
        &mut self,
        definition: FlowDefinition,
        batch: &PacketBatch,
        range: Range<usize>,
    ) -> Result<(), RuntimeFailure> {
        if let Some(runtime) = &mut self.runtime {
            return runtime.append(&mut self.truth, definition, batch, range);
        }
        self.segments += 1;
        self.ids.clear();
        let mut start = range.start;
        for i in range.clone() {
            let key = batch.flow_key(i, definition);
            let id =
                self.truth
                    .observe_id(key, batch.timestamp(i), batch.length(i), batch.tcp_seq(i));
            self.ids.push(id);
            if let Some(budget) = self.flow_budget {
                if budget.binds(self.truth.flow_count()) {
                    self.offer(batch, start..i + 1);
                    let evicted = &mut self.evicted;
                    self.evictions += self
                        .truth
                        .evict_to_budget_with(budget.cap, |id, key, last| {
                            evicted.push((id, key, last))
                        });
                    let flows = self.truth.flow_count();
                    let moved = |capped: &mut CappedCounts, counts: &mut IdCounts| {
                        capped.truth_evicted(counts, evicted, flows)
                    };
                    self.shard.each_capped(moved);
                    evicted.clear();
                    self.ids.clear();
                    start = i + 1;
                }
            }
        }
        if start < range.end {
            self.offer(batch, start..range.end);
        }
        Ok(())
    }

    /// Offers `batch[range]`, whose flow ids `ids` holds, to every lane.
    fn offer(&mut self, batch: &PacketBatch, range: Range<usize>) {
        self.shard.observe(&Segment {
            batch,
            range,
            ids: &self.ids,
            flows: self.truth.flow_count(),
            truth: self.flow_budget.map(|_| &self.truth),
        });
    }

    /// Ranks the ground truth once, scores every lane against it, clears
    /// the truth, writes the bin report into the recycled buffer, runs the
    /// control step and resets all per-bin state.
    fn seal_bin(
        &mut self,
        bin_index: u64,
        bin_start: Timestamp,
        top_t: usize,
    ) -> Result<&BinReport, RuntimeFailure> {
        let report = &mut self.report;
        // One classification and one ranking per bin, regardless of lane
        // count: this is the entire point of the shared-ground-truth
        // design. The ranking selects the top flows and sorts only those,
        // so a seal is linear in the bin's flow count. Lanes of a budgeted
        // monitor first take back the counts of flows the truth evicted and
        // holds again.
        let truth = &self.truth;
        self.shard
            .each_capped(|capped, counts| capped.reattach(counts, truth));
        let flows = sized_flows(&self.truth);
        report.reset();
        report.bin_index = bin_index;
        report.bin_start = bin_start;
        report.packets = self.truth.total_packets();
        report.flows = flows.len();
        let mut truth = GroundTruthRanking::new(flows, top_t);
        match &mut self.runtime {
            None => self.shard.score(&truth, top_t, &mut report.lanes),
            Some(runtime) => truth = runtime.seal(truth, &mut report.lanes)?,
        }
        self.truth.clear();
        report.evictions = std::mem::take(&mut self.evictions) + self.shard.take_evictions();
        // The control step runs after lane scoring while the bin's ranking
        // is still live — so controller decisions are a pure function of
        // the report stream, independent of thread count and ingestion path
        // like everything else in the report.
        if let Some(state) = self.controller.as_mut() {
            let lane = &mut report.lanes[state.lane];
            let (trail, retune) =
                state.step(bin_index, report.packets, report.flows, lane, &truth, top_t);
            report.controller = Some(trail);
            if let Some((rate, spec)) = retune {
                match &mut self.runtime {
                    None => self.shard.retune(state.lane, rate, spec),
                    Some(runtime) => runtime.retune(state.lane, rate, spec),
                }
            }
        }
        Ok(report)
    }
}

impl Monitor {
    /// Starts building a monitor.
    pub fn builder() -> MonitorBuilder {
        MonitorBuilder::new()
    }

    /// Number of sampling lanes (runs × rates).
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    /// The configured measurement-bin length.
    pub fn bin_length(&self) -> Timestamp {
        self.bin_length
    }

    /// Work units since the monitor was built: `.0` is the within-bin
    /// segments a `threads(1)` monitor offered in place, `.1` the keyed
    /// buffers a `threads(n > 1)` monitor published to its lanes. One of the
    /// two is always 0, and `.1` grows with the packet count, not the
    /// number of pushes, because the calling thread coalesces
    /// ([`MonitorBuilder::threads`]).
    pub fn segment_stats(&self) -> (u64, u64) {
        let shipped = self
            .engine
            .runtime
            .as_ref()
            .map_or(0, |runtime| runtime.shipped());
        (self.engine.segments, shipped)
    }

    /// The configured per-table flow cap ([`MonitorBuilder::flow_budget`]),
    /// `None` when the monitor runs unbudgeted.
    pub fn flow_budget(&self) -> Option<usize> {
        self.engine.flow_budget.map(FlowBudget::cap)
    }

    /// Whether a lane has panicked. A poisoned monitor keeps
    /// returning [`DriveError::WorkerPanicked`] from fallible calls and can
    /// be dropped safely, but can do no further work.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Name of the attached rate controller, when one is attached.
    pub fn controller_name(&self) -> Option<&'static str> {
        let state = self.engine.controller.as_ref();
        state.map(|state| state.controller.name())
    }

    /// Observes a batch of packets and delivers every bin its timestamps
    /// closed to `sink`, by reference, in order — normally none or one;
    /// more when the trace has idle gaps, in which case the intervening
    /// empty bins are reported too, so bin indices always correspond to
    /// wall-clock intervals.
    ///
    /// Packets must arrive in non-decreasing timestamp order, within the
    /// batch and across calls (a packet older than the current bin is
    /// counted into the current bin rather than rewriting history). The
    /// batch is split on bin boundaries: each contiguous segment is
    /// classified into the ground truth in one pass and offered to every
    /// lane batch-at-a-time. Because every sampler's per-packet and batch
    /// paths share state, the reports are bit-identical for any way of
    /// cutting the stream into batches, down to one packet each.
    ///
    /// With [`MonitorBuilder::threads`] above 1, the calling thread
    /// classifies the ground truth and publishes the segments, with their
    /// flow ids, to the lanes, which it and the helpers claim — with reports
    /// bit-identical to `threads(1)` (pinned by the `streaming_equivalence`
    /// suite). The report a sink receives is backed
    /// by a buffer the monitor recycles across bins, so steady-state bin
    /// closes are allocation-free on the monitor side.
    pub fn push_batch_into<K: ReportSink + ?Sized>(&mut self, batch: &PacketBatch, sink: &mut K) {
        self.push_range_into(batch, 0..batch.len(), sink);
    }

    /// [`Monitor::push_batch_into`] over `batch[range]` alone: the packets
    /// of one tenant's run inside a fleet's tagged window, pushed in place
    /// instead of copied out first. Pushing a batch's ranges in order is
    /// pushing the batch.
    pub fn push_range_into<K: ReportSink + ?Sized>(
        &mut self,
        batch: &PacketBatch,
        range: Range<usize>,
        sink: &mut K,
    ) {
        if let Err(error) = self.try_push_range_into(batch, range, &mut Accepting(sink)) {
            panic!("{error}");
        }
    }

    /// Fallible form of [`Monitor::push_range_into`], delivering through
    /// the sink's [`ReportSink::emit`]: instead of panicking, surfaces a
    /// timestamp regression rejected by [`TimestampPolicy::Reject`] as
    /// [`DriveError::TimestampRegression`], a failed `emit` as
    /// [`DriveError::Sink`], and a lane panic as
    /// [`DriveError::WorkerPanicked`] (after which the monitor is poisoned —
    /// every further fallible call returns the same error, and dropping it
    /// is safe). The `stats` carried on these errors are empty; a drive
    /// fills them in.
    pub(crate) fn try_push_range_into<K: ReportSink + ?Sized>(
        &mut self,
        batch: &PacketBatch,
        range: Range<usize>,
        sink: &mut K,
    ) -> Result<(), DriveError> {
        if let Some(error) = self.poisoned_error() {
            return Err(error);
        }
        if let Err((prev_nanos, ts_nanos)) =
            self.check_timestamp_contract(&batch.ts_nanos()[range.clone()])
        {
            return Err(DriveError::TimestampRegression {
                prev_nanos,
                ts_nanos,
                stats: DriveStats::default(),
            });
        }
        let mut start = range.start;
        while start < range.end {
            // A packet older than the current bin is counted into the
            // current bin.
            let bin = batch
                .timestamp(start)
                .bin_index(self.bin_length)
                .max(self.current_bin);
            while bin > self.current_bin {
                self.emit_current_bin(sink)?;
            }
            let mut end = start + 1;
            while end < range.end
                && batch.timestamp(end).bin_index(self.bin_length) <= self.current_bin
            {
                end += 1;
            }
            self.saw_packet = true;
            let observed = self.engine.observe(self.flow_definition, batch, start..end);
            observed.map_err(|failure| self.poison(failure))?;
            start = end;
        }
        Ok(())
    }

    /// Latches the poisoned state from a recorded lane failure and converts
    /// it to the error every subsequent fallible call will keep returning.
    fn poison(&mut self, failure: RuntimeFailure) -> DriveError {
        self.poisoned
            .get_or_insert((failure.lane, self.current_bin));
        self.poisoned_error().expect("just latched")
    }

    /// The latched poison error, when a lane has panicked.
    fn poisoned_error(&self) -> Option<DriveError> {
        self.poisoned.map(|(lane, bin)| DriveError::WorkerPanicked {
            lane,
            bin,
            stats: DriveStats::default(),
        })
    }

    /// Enforces the documented push contract — timestamps non-decreasing
    /// within a batch and across calls — according to
    /// [`DrivePolicy::timestamps`]:
    ///
    /// * [`TimestampPolicy::DebugAssert`] (default): debug builds fail fast
    ///   on a regression, release builds keep the historical tolerant fold
    ///   (an out-of-order packet counts into the current bin).
    /// * [`TimestampPolicy::Reject`]: returns the offending `(prev, ts)`
    ///   pair in every build; the batch is not applied.
    /// * [`TimestampPolicy::ClampAndCount`]: folds tolerantly in every
    ///   build and counts each regression in
    ///   [`DriveStats::clamped_timestamps`].
    fn check_timestamp_contract(&mut self, ts: &[u64]) -> Result<(), (u64, u64)> {
        match self.drive_policy.timestamps {
            TimestampPolicy::DebugAssert => {
                #[cfg(debug_assertions)]
                {
                    if let (Some(&first), Some(last)) = (ts.first(), self.last_ts_nanos) {
                        debug_assert!(
                            first >= last,
                            "Monitor: timestamp regressed across push calls \
                             ({first} ns after {last} ns); the push contract requires \
                             non-decreasing timestamps"
                        );
                    }
                    for pair in ts.windows(2) {
                        debug_assert!(
                            pair[0] <= pair[1],
                            "Monitor: timestamps regress inside one batch \
                             ({} ns after {} ns); the push contract requires \
                             non-decreasing timestamps",
                            pair[1],
                            pair[0]
                        );
                    }
                }
            }
            TimestampPolicy::Reject => {
                if let (Some(&first), Some(last)) = (ts.first(), self.last_ts_nanos) {
                    if first < last {
                        return Err((last, first));
                    }
                }
                if let Some(pair) = ts.windows(2).find(|pair| pair[0] > pair[1]) {
                    return Err((pair[0], pair[1]));
                }
            }
            TimestampPolicy::ClampAndCount => {
                if let (Some(&first), Some(last)) = (ts.first(), self.last_ts_nanos) {
                    if first < last {
                        self.clamped_timestamps += 1;
                    }
                }
                self.clamped_timestamps +=
                    ts.windows(2).filter(|pair| pair[0] > pair[1]).count() as u64;
            }
        }
        if let Some(&last) = ts.last() {
            self.last_ts_nanos = Some(self.last_ts_nanos.map_or(last, |seen| seen.max(last)));
        }
        Ok(())
    }

    /// Closes the bin currently being filled (when any packet started one)
    /// and delivers its report by reference. Call at the end of a trace.
    /// Returns whether a bin was closed.
    pub fn finish_into<K: ReportSink + ?Sized>(&mut self, sink: &mut K) -> bool {
        match self.try_finish_into(&mut Accepting(sink)) {
            Ok(closed) => closed,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible form of [`Monitor::finish_into`], delivering through the
    /// sink's [`ReportSink::emit`]: a failed `emit` surfaces as
    /// [`DriveError::Sink`] and a lane panic as
    /// [`DriveError::WorkerPanicked`] instead of panicking the calling
    /// thread.
    pub(crate) fn try_finish_into<K: ReportSink + ?Sized>(
        &mut self,
        sink: &mut K,
    ) -> Result<bool, DriveError> {
        if let Some(error) = self.poisoned_error() {
            return Err(error);
        }
        if !self.saw_packet {
            return Ok(false);
        }
        self.emit_current_bin(sink)?;
        self.saw_packet = false;
        Ok(true)
    }

    /// [`Monitor::push_batch_into`] and [`Monitor::finish_into`] into a
    /// [`Collect`], returning every report. No code in the workspace calls
    /// it; it stays only while the `ledger` package does.
    #[doc(hidden)]
    pub fn run_batch(&mut self, batch: &PacketBatch) -> Vec<BinReport> {
        let mut sink = Collect::new();
        self.push_batch_into(batch, &mut sink);
        self.finish_into(&mut sink);
        sink.reports
    }

    /// Drives the monitor from a packet source into a report sink until the
    /// source ends, then closes the final bin — the canonical entry point of
    /// the streaming pipeline. A one-packet push is a drive over
    /// [`Chunked::new(source, 1)`](crate::Chunked::new).
    ///
    /// It runs [`Monitor::try_drive`]'s loop under a lenient policy: an idle
    /// poll (an empty chunk) is waited out, [`DrivePolicy::idle_wait`] at a
    /// time, and never counts as a stall; a malformed record is skipped; no
    /// error budget applies; timestamps follow [`DrivePolicy::timestamps`].
    /// Reports are delivered through the sink's [`ReportSink::accept`], so a
    /// writer sink keeps its error for its own `finish()`. The end of the
    /// stream and a fatal source error both end the drive, which then closes
    /// the final bin. Anything else — a timestamp regression under
    /// [`TimestampPolicy::Reject`], a lane panic — panics, as
    /// [`Monitor::push_batch_into`] does; [`Monitor::try_drive`] is the form
    /// that reports faults.
    ///
    /// The contract:
    ///
    /// * **Chunking invariance** — for a fixed packet sequence, the reports
    ///   are bit-identical for *any* way the source cuts it into chunks
    ///   (down to one packet per chunk) and for any thread count, because
    ///   `drive` is a loop over [`Monitor::push_batch_into`] and every
    ///   sampler's per-packet and batch paths share state.
    /// * **Sink ordering** — the sink sees every closed bin exactly once, in
    ///   bin-index order (idle gaps emit their empty bins too), and the
    ///   final partial bin is flushed when the source ends, exactly like
    ///   [`Monitor::finish_into`].
    /// * **Borrowed reports** — the sink receives `&BinReport` backed by a
    ///   buffer the monitor recycles; a sink must copy whatever it wants to
    ///   keep past the `accept` call. In return, steady-state operation
    ///   allocates nothing per bin on the monitor side.
    /// * **Bounded memory** — the monitor holds one chunk's worth of derived
    ///   keys plus per-lane state; with a streaming source (scenario
    ///   workloads, chunked pcap) and an aggregating sink, peak memory is
    ///   independent of trace length.
    ///
    /// Returns the drive's [`DriveStats`] (chunks, packets, reports, skipped
    /// records, idle polls). A monitor can be driven repeatedly; each drive
    /// closes its own final bin and later drives continue the bin sequence
    /// (timestamps must keep rising across them).
    pub fn drive<S, K>(&mut self, source: &mut S, sink: &mut K) -> DriveStats
    where
        S: PacketSource + ?Sized,
        K: ReportSink + ?Sized,
    {
        let lenient = DrivePolicy {
            skip_malformed: true,
            error_budget: u64::MAX,
            stall_polls: u64::MAX,
            ..self.drive_policy
        };
        match self.drive_with(lenient, source, &mut Accepting(sink)) {
            Ok(stats) => stats,
            Err(DriveError::Source { mut stats, .. }) => {
                stats.reports += u64::from(self.finish_into(sink));
                stats
            }
            Err(error) => panic!("{error}"),
        }
    }

    /// Fault-aware form of [`Monitor::drive`]: pulls chunks through
    /// [`PacketSource::try_next_chunk`], delivers reports through
    /// [`ReportSink::emit`], and recovers per the configured
    /// [`DrivePolicy`] ([`MonitorBuilder::drive_policy`]):
    ///
    /// * recoverable malformed records are skipped and counted when
    ///   [`DrivePolicy::skip_malformed`] is set, otherwise they abort —
    ///   fatal source errors always abort ([`DriveError::Source`]); a skip
    ///   is *progress*, so it also resets the stall detector's idle streak;
    /// * the first failed [`ReportSink::emit`] aborts ([`DriveError::Sink`]);
    ///   nothing retries it, since the failure may follow a partial write;
    /// * total absorbed recoveries over [`DrivePolicy::error_budget`] abort
    ///   ([`DriveError::ErrorBudgetExhausted`]);
    /// * a source answering an empty chunk (an idle poll) makes the loop sleep
    ///   [`DrivePolicy::idle_wait`] and poll again; an uninterrupted idle
    ///   streak of at least [`DrivePolicy::stall_polls`] polls spanning at
    ///   least [`DrivePolicy::stall_timeout`] of wall time aborts
    ///   ([`DriveError::SourceStalled`]);
    /// * timestamp regressions follow [`DrivePolicy::timestamps`], and a
    ///   lane panic aborts with [`DriveError::WorkerPanicked`].
    ///
    /// On success returns the [`DriveStats`] health report; every abort
    /// carries the stats accumulated up to that point in its `stats` field.
    /// A fault-free `try_drive` is bit-identical to [`Monitor::drive`] for
    /// every source chunking and thread count (pinned by the conformance
    /// goldens), and an aborted drive never closes the final bin — state
    /// simply stops advancing at the failure point.
    pub fn try_drive<S, K>(
        &mut self,
        source: &mut S,
        sink: &mut K,
    ) -> Result<DriveStats, DriveError>
    where
        S: PacketSource + ?Sized,
        K: ReportSink + ?Sized,
    {
        self.drive_with(self.drive_policy, source, sink)
    }

    /// The one poll loop behind [`Monitor::drive`] and
    /// [`Monitor::try_drive`]: pushes every chunk `source` yields into the
    /// monitor, delivering through `sink`'s [`ReportSink::emit`], applies
    /// `policy` to idle polls, malformed records and the error budget, and
    /// closes the final bin when the source ends.
    fn drive_with<S, K>(
        &mut self,
        policy: DrivePolicy,
        source: &mut S,
        sink: &mut K,
    ) -> Result<DriveStats, DriveError>
    where
        S: PacketSource + ?Sized,
        K: ReportSink + ?Sized,
    {
        let (clamped_base, delivered_base) = (self.clamped_timestamps, self.delivered);
        let mut stats = DriveStats::default();
        let mut idle_streak = 0u64;
        // Wall-clock start of the current idle streak; `None` while the
        // source is making progress. The stall detector measures real time
        // from here, not loop iterations — a fast poll loop must not turn
        // `stall_polls` polls of a merely quiet source into an abort.
        let mut idle_since: Option<Instant> = None;
        let outcome = loop {
            match source.try_next_chunk() {
                Ok(Some(chunk)) if chunk.is_empty() => {
                    // Idle poll: "no data right now, not end-of-stream".
                    stats.idle_polls += 1;
                    idle_streak += 1;
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if idle_streak >= policy.stall_polls {
                        let stalled_for = since.elapsed();
                        if stalled_for >= policy.stall_timeout {
                            break Err(DriveError::SourceStalled {
                                idle_polls: idle_streak,
                                stalled_for,
                                stats,
                            });
                        }
                    }
                    if !policy.idle_wait.is_zero() {
                        std::thread::sleep(policy.idle_wait);
                    }
                    continue;
                }
                Ok(Some(chunk)) => {
                    idle_streak = 0;
                    idle_since = None;
                    stats.chunks += 1;
                    stats.packets += chunk.len() as u64;
                    if let Err(error) = self.try_push_range_into(chunk, 0..chunk.len(), sink) {
                        break Err(error);
                    }
                }
                Ok(None) => break self.try_finish_into(sink).map(drop),
                Err(error) if error.is_recoverable() && policy.skip_malformed => {
                    stats.malformed_skipped += 1;
                    // A skipped record is progress past real input — a
                    // source alternating idle polls with skippable records
                    // is degraded, not stalled.
                    idle_streak = 0;
                    idle_since = None;
                }
                Err(error) => break Err(DriveError::Source { error, stats }),
            }
            // One budget gate per loop turn: every recovery class the policy
            // absorbed so far counts against the same budget.
            stats.clamped_timestamps = self.clamped_timestamps - clamped_base;
            if stats.recoveries() > policy.error_budget {
                break Err(DriveError::ErrorBudgetExhausted {
                    budget: policy.error_budget,
                    stats,
                });
            }
        };
        stats.reports = self.delivered - delivered_base;
        stats.clamped_timestamps = self.clamped_timestamps - clamped_base;
        outcome.map(|()| stats).map_err(|mut error| {
            *error.stats_mut() = stats;
            error
        })
    }

    /// Closes the bin currently being filled, delivers its report into
    /// the sink and advances to the next one.
    fn emit_current_bin<K: ReportSink + ?Sized>(&mut self, sink: &mut K) -> Result<(), DriveError> {
        let bin_index = self.current_bin;
        let bin_start =
            Timestamp::from_micros(bin_index.saturating_mul(self.bin_length.as_micros()));
        self.current_bin += 1;
        match self.engine.seal_bin(bin_index, bin_start, self.top_t) {
            Ok(report) => {
                sink.emit(report).map_err(|error| DriveError::Sink {
                    error,
                    stats: DriveStats::default(),
                })?;
                self.delivered += 1;
                Ok(())
            }
            Err(failure) => Err(self.poison(failure)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_net::PacketRecord;
    use std::net::Ipv4Addr;

    fn packet(flow: u8, t: f64) -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_secs_f64(t),
            Ipv4Addr::new(10, 0, 0, flow),
            1000 + flow as u16,
            Ipv4Addr::new(100, 64, flow, 1),
            80,
            500,
            0,
        )
    }

    /// A whole in-memory trace as one batch, final bin closed.
    fn run(monitor: &mut Monitor, packets: &[PacketRecord]) -> Vec<BinReport> {
        let mut sink = Collect::new();
        monitor.push_batch_into(&PacketBatch::from_records(packets), &mut sink);
        monitor.finish_into(&mut sink);
        sink.reports
    }

    /// One packet as a one-record batch: the bins it closed.
    fn push(monitor: &mut Monitor, packet: &PacketRecord) -> Vec<BinReport> {
        let mut sink = Collect::new();
        let batch = PacketBatch::from_records(std::slice::from_ref(packet));
        monitor.push_batch_into(&batch, &mut sink);
        sink.reports
    }

    /// The open bin's report, if a packet started one.
    fn finish(monitor: &mut Monitor) -> Option<BinReport> {
        let mut sink = Collect::new();
        monitor.finish_into(&mut sink);
        sink.reports.pop()
    }

    /// Mean ranking metric across all lanes of `rate` (0 when none match).
    fn mean_ranking_at_rate(report: &BinReport, rate: f64) -> f64 {
        let metrics: Vec<f64> = report
            .lanes_at_rate(rate)
            .map(|lane| lane.ranking_metric())
            .collect();
        metrics.iter().sum::<f64>() / metrics.len().max(1) as f64
    }

    /// Flow `i` of `flows` sends `10 * (flows − i)` packets inside one bin.
    fn skewed_bin(flows: u8, offset_secs: f64) -> Vec<PacketRecord> {
        let mut packets = Vec::new();
        for i in 0..flows {
            for j in 0..(10 * (flows - i) as usize) {
                packets.push(packet(i, offset_secs + j as f64 * 0.01));
            }
        }
        packets.sort_by_key(|p| p.timestamp);
        packets
    }

    #[test]
    fn full_sampling_lane_is_error_free() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 1.0 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .top_t(10)
            .build();
        let reports = run(&mut monitor, &skewed_bin(20, 0.0));
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.flows, 20);
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].sampled_flows, 20);
        assert_eq!(report.lanes[0].outcome.ranking_swaps, 0);
        assert_eq!(report.lanes[0].outcome.detection_swaps, 0);
    }

    #[test]
    fn bins_close_on_timestamp_boundaries() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.5 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .seed(3)
            .build();
        let mut packets = skewed_bin(10, 0.0);
        packets.extend(skewed_bin(10, 61.0));
        let mut reports = Vec::new();
        for p in &packets {
            reports.extend(push(&mut monitor, p));
        }
        // The second bin is still open until finish().
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].bin_index, 0);
        let last = finish(&mut monitor).expect("second bin must close");
        assert_eq!(last.bin_index, 1);
        assert_eq!(last.bin_start, Timestamp::from_secs_f64(60.0));
        assert!(finish(&mut monitor).is_none(), "no third bin was started");
    }

    #[test]
    fn idle_gaps_emit_empty_bins() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.5 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .build();
        assert!(push(&mut monitor, &packet(1, 10.0)).is_empty());
        // Jumping to bin 3 closes bins 0 (1 packet), 1 and 2 (empty).
        let closed = push(&mut monitor, &packet(1, 190.0));
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].packets, 1);
        assert_eq!(closed[1].packets, 0);
        assert_eq!(closed[1].flows, 0);
        assert_eq!(closed[2].packets, 0);
        // A gap bin has no pairs to score, on any lane.
        for gap in &closed[1..] {
            assert_eq!(gap.lanes.len(), monitor.lane_count());
            for lane in &gap.lanes {
                assert_eq!(lane.outcome.ranking_pairs, 0);
                assert_eq!(lane.outcome.detection_pairs, 0);
                assert_eq!(lane.outcome.missed_top_flows, 0);
            }
        }
        assert_eq!(monitor.current_bin, 3);
    }

    #[test]
    fn flow_budget_evicts_chunk_invariantly() {
        let build = || {
            Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.5 })
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(7)
                .flow_budget(8)
                .build()
        };
        assert_eq!(build().flow_budget(), Some(8));
        // 40 distinct flows against a cap of 8 (high water 12): the budget
        // binds repeatedly within the bin.
        let packets = skewed_bin(40, 0.0);
        let whole = run(&mut build(), &packets);
        assert_eq!(whole.len(), 1);
        assert!(whole[0].evictions > 0, "budget must have bound");
        assert!(
            whole[0].flows < 40,
            "sealed ground truth holds only survivors"
        );
        // Per-packet push — the opposite chunking extreme — must evict at
        // exactly the same points and report bit-identically.
        let mut monitor = build();
        let mut pushed = Vec::new();
        for p in &packets {
            pushed.extend(push(&mut monitor, p));
        }
        pushed.extend(finish(&mut monitor));
        assert_eq!(pushed, whole);
        // An unbudgeted monitor reports no evictions.
        let mut free = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.5 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .seed(7)
            .build();
        let free = run(&mut free, &packets);
        assert_eq!(free[0].evictions, 0);
        assert_eq!(free[0].flows, 40);
    }

    #[test]
    #[should_panic(expected = "flow_budget requires threads(1)")]
    fn flow_budget_rejects_multithreaded_monitors() {
        let _ = Monitor::builder().flow_budget(64).threads(2).build();
    }

    #[test]
    fn fan_out_shares_ground_truth_across_lanes() {
        let rates = [0.1, 0.5];
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.0 })
            .rates(&rates)
            .runs(5)
            .seed(11)
            .bin_length(Timestamp::from_secs_f64(60.0))
            .build();
        assert_eq!(monitor.lane_count(), 10);
        let reports = run(&mut monitor, &skewed_bin(30, 0.0));
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.lanes.len(), 10);
        assert_eq!(report.lanes_at_rate(0.1).count(), 5);
        // Higher rates rank better on average.
        assert!(mean_ranking_at_rate(report, 0.5) < mean_ranking_at_rate(report, 0.1));
        // Runs within a rate use distinct seeds → not all outcomes identical.
        let outcomes: Vec<u64> = report
            .lanes_at_rate(0.1)
            .map(|l| l.outcome.ranking_swaps)
            .collect();
        assert!(outcomes.iter().any(|&o| o != outcomes[0]) || outcomes.is_empty());
    }

    #[test]
    fn monitor_is_deterministic_per_seed() {
        let build = || {
            Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.1 })
                .rates(&[0.05, 0.2])
                .runs(4)
                .seed(77)
                .build()
        };
        let packets = skewed_bin(25, 0.0);
        let a = run(&mut build(), &packets);
        let b = run(&mut build(), &packets);
        assert_eq!(a, b);
    }

    #[test]
    fn topk_backend_rides_on_sampled_packets() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 1.0 })
            .topk(crate::spec::TopKSpec::SpaceSaving { capacity: 8 })
            .top_t(3)
            .build();
        let reports = run(&mut monitor, &skewed_bin(20, 0.0));
        let topk = reports[0].lanes[0].topk.as_ref().expect("backend attached");
        assert_eq!(topk.backend, "space-saving");
        assert!(topk.memory_entries <= 8);
        assert_eq!(topk.entries.len(), 3);
        // At full sampling the largest flow (200 packets) leads the list;
        // space-saving estimates are upper bounds under tight memory.
        assert!(topk.entries[0].estimate >= 200);
    }

    #[test]
    fn every_sampler_spec_runs_through_the_monitor() {
        let specs = [
            SamplerSpec::Random { rate: 0.3 },
            SamplerSpec::Periodic {
                rate: 0.3,
                random_phase: true,
            },
            SamplerSpec::Stratified { rate: 0.3 },
            SamplerSpec::Flow { rate: 0.3 },
            SamplerSpec::Smart { threshold: 20.0 },
            SamplerSpec::Adaptive {
                initial_rate: 0.3,
                budget_per_interval: 100,
                interval: Timestamp::from_secs_f64(1.0),
            },
        ];
        let packets = skewed_bin(15, 0.0);
        for spec in specs {
            let mut monitor = Monitor::builder().sampler(spec).seed(5).build();
            let reports = run(&mut monitor, &packets);
            assert_eq!(reports.len(), 1, "{}", spec.name());
            let lane = &reports[0].lanes[0];
            assert_eq!(lane.sampler, spec.name());
            assert!(lane.sampled_packets <= reports[0].packets);
        }
    }

    #[test]
    fn rate_tags_follow_the_requested_grid_even_for_unrated_specs() {
        // Smart sampling ignores with_rate(), but its lanes must still be
        // tagged with the requested grid rates so rate-keyed aggregation
        // (lanes_at_rate) finds them.
        let rates = [0.001, 0.5];
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Smart { threshold: 50.0 })
            .rates(&rates)
            .runs(3)
            .seed(9)
            .build();
        let reports = run(&mut monitor, &skewed_bin(10, 0.0));
        let report = &reports[0];
        for &rate in &rates {
            assert_eq!(report.lanes_at_rate(rate).count(), 3, "rate {rate}");
        }
        assert!(report.lanes.iter().all(|l| l.sampler == "smart"));
    }

    #[test]
    fn zero_bin_length_is_one_unbounded_bin() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 1.0 })
            .bin_length(Timestamp::ZERO)
            .build();
        let mut packets = skewed_bin(5, 0.0);
        packets.extend(skewed_bin(5, 10_000.0));
        let reports = run(&mut monitor, &packets);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].packets, packets.len() as u64);
    }

    #[test]
    fn empty_trace_produces_no_reports() {
        let mut monitor = Monitor::builder().build();
        assert!(run(&mut monitor, &[]).is_empty());
        let mut parallel = Monitor::builder().threads(4).build();
        assert!(run(&mut parallel, &[]).is_empty());
    }

    #[test]
    fn multi_thread_run_trace_is_bit_identical() {
        // Two populated bins separated by an idle bin, several rates × runs,
        // and a top-k backend: the parallel whole-bin path must reproduce
        // the packet-by-packet reports exactly, for any thread count. The
        // first bin's 1200 packets cross the parallel-segment threshold, so
        // the fan-out branch really runs.
        let mut packets = skewed_bin(15, 0.0);
        packets.extend(skewed_bin(9, 130.0));
        let build = |threads: usize| {
            Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.01 })
                .rates(&[0.05, 0.3])
                .runs(3)
                .topk(crate::spec::TopKSpec::SpaceSaving { capacity: 16 })
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(7)
                .threads(threads)
                .build()
        };
        let baseline = run(&mut build(1), &packets);
        assert_eq!(baseline.len(), 3, "bins 0, 1 (idle) and 2");
        for threads in [2, 3, 8] {
            let mut monitor = build(threads);
            assert!(monitor.engine.runtime.is_some());
            assert_eq!(run(&mut monitor, &packets), baseline, "{threads} threads");
        }
    }

    #[test]
    fn parallel_run_trace_continues_a_pushed_bin() {
        // Mixing the entry points: packets pushed one at a time, then the
        // rest of the trace run as a buffered batch, must match a pure
        // sequential monitor.
        let packets = skewed_bin(10, 0.0);
        let build = |threads: usize| {
            Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.4 })
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(5)
                .threads(threads)
                .build()
        };
        let mut sequential = build(1);
        let mut mixed = build(2);
        let mut seq_reports = Vec::new();
        for p in &packets[..25] {
            seq_reports.extend(push(&mut sequential, p));
            push(&mut mixed, p);
        }
        seq_reports.extend(run(&mut sequential, &packets[25..]));
        let mixed_reports = run(&mut mixed, &packets[25..]);
        assert_eq!(seq_reports, mixed_reports);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let builder = Monitor::builder().threads(0);
        assert!(builder.threads >= 1);
        builder.build();
    }

    #[test]
    fn rate_lookup_survives_inexact_float_arithmetic() {
        // 0.1 + 0.2 - 0.2 is one ulp away from 0.1: a grid built from
        // arithmetic must still be addressable by the "same" literal rate,
        // and vice versa. Exact f64 == matching used to return nothing here.
        let computed: f64 = 0.1 + 0.2 - 0.2;
        assert_ne!(computed.to_bits(), 0.1f64.to_bits(), "premise of the test");
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.0 })
            .rates(&[computed, 0.5])
            .runs(3)
            .seed(21)
            .build();
        let reports = run(&mut monitor, &skewed_bin(20, 0.0));
        let report = &reports[0];
        // The literal finds the computed grid rate...
        assert_eq!(report.rate_id_of(0.1), Some(0));
        assert_eq!(report.lanes_at_rate(0.1).count(), 3);
        // ...the computed value finds itself...
        assert_eq!(report.lanes_at_rate(computed).count(), 3);
        assert_eq!(report.lanes_at_rate(0.5).count(), 3);
        assert!(mean_ranking_at_rate(report, 0.5) <= mean_ranking_at_rate(report, 0.1));
        // ...and a genuinely different rate matches nothing.
        assert_eq!(report.rate_id_of(0.3), None);
        assert_eq!(report.lanes_at_rate(0.3).count(), 0);
        assert_eq!(mean_ranking_at_rate(report, 0.3), 0.0);
        // Index-keyed access agrees with the resolved lookup.
        assert_eq!(report.lanes.iter().filter(|l| l.rate_id == 1).count(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "timestamp regressed across push calls")]
    fn regressing_timestamps_across_calls_fail_fast_in_debug() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.5 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .build();
        push(&mut monitor, &packet(1, 70.0));
        // Older than anything already pushed: the documented non-decreasing
        // contract is violated, so debug builds must fail fast instead of
        // silently folding the packet into the current bin.
        push(&mut monitor, &packet(1, 10.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "timestamps regress inside one batch")]
    fn regressing_timestamps_inside_a_batch_fail_fast_in_debug() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.5 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .build();
        let batch = PacketBatch::from_records(&[packet(1, 70.0), packet(1, 10.0)]);
        monitor.push_batch_into(&batch, &mut Collect::new());
    }

    #[test]
    fn reject_policy_surfaces_timestamp_regressions_as_errors() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.5 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .drive_policy(DrivePolicy::strict().timestamps(TimestampPolicy::Reject))
            .build();
        let mut sink = Collect::new();
        let forward = PacketBatch::from_records(&[packet(1, 70.0)]);
        monitor
            .try_push_range_into(&forward, 0..forward.len(), &mut sink)
            .expect("ordered batch is accepted");
        // Across calls: older than everything already pushed.
        let stale = PacketBatch::from_records(&[packet(1, 10.0)]);
        match monitor.try_push_range_into(&stale, 0..stale.len(), &mut sink) {
            Err(DriveError::TimestampRegression {
                prev_nanos,
                ts_nanos,
                ..
            }) => {
                assert_eq!(prev_nanos, Timestamp::from_secs_f64(70.0).as_nanos());
                assert_eq!(ts_nanos, Timestamp::from_secs_f64(10.0).as_nanos());
            }
            other => panic!("expected TimestampRegression, got {other:?}"),
        }
        // Within one batch: second packet regresses. The rejected batch was
        // not applied, so 80 s is still a legal next timestamp.
        let inner = PacketBatch::from_records(&[packet(1, 80.0), packet(1, 75.0)]);
        assert!(matches!(
            monitor.try_push_range_into(&inner, 0..inner.len(), &mut sink),
            Err(DriveError::TimestampRegression { .. })
        ));
        assert_eq!(monitor.clamped_timestamps, 0);
    }

    #[test]
    fn clamp_policy_folds_and_counts_timestamp_regressions() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 1.0 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .drive_policy(DrivePolicy::strict().timestamps(TimestampPolicy::ClampAndCount))
            .build();
        let mut sink = Collect::new();
        let forward = PacketBatch::from_records(&[packet(1, 70.0)]);
        monitor
            .try_push_range_into(&forward, 0..forward.len(), &mut sink)
            .expect("ordered batch is accepted");
        // One regression across calls + one inside the batch: both fold
        // into the current bin (the historical release behaviour) and both
        // are counted.
        let stale = PacketBatch::from_records(&[packet(2, 10.0), packet(3, 75.0), packet(3, 5.0)]);
        monitor
            .try_push_range_into(&stale, 0..stale.len(), &mut sink)
            .expect("clamp policy absorbs the regressions");
        assert_eq!(monitor.clamped_timestamps, 2);
        let report = finish(&mut monitor).expect("bin 1 closes with its packets");
        assert_eq!(report.bin_index, 1);
        assert_eq!(
            report.packets, 4,
            "regressed packets fold into the open bin"
        );
    }

    /// Four populated bins of the same skewed traffic.
    fn four_bins() -> Vec<PacketRecord> {
        let mut packets = skewed_bin(20, 0.0);
        packets.extend(skewed_bin(20, 61.0));
        packets.extend(skewed_bin(20, 122.0));
        packets.extend(skewed_bin(20, 183.0));
        packets
    }

    #[test]
    fn controller_attaches_one_audited_lane_after_the_grid() {
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.1 })
            .rates(&[0.05, 0.5])
            .runs(2)
            .controller(ControllerSpec::aimd_slo())
            .seed(3)
            .build();
        assert_eq!(monitor.lane_count(), 5, "2 rates × 2 runs + controlled");
        assert_eq!(monitor.controller_name(), Some("aimd-slo"));
        let reports = run(&mut monitor, &four_bins());
        for report in &reports {
            let trail = report.controller.as_ref().expect("trail on every bin");
            assert_eq!(trail.controller, "aimd-slo");
            assert_eq!(trail.lane, 4);
            assert!(report.lanes[4].controlled);
            assert!(report.lanes[..4].iter().all(|lane| !lane.controlled));
            assert_eq!(report.lanes[4].rate_id, 2, "own rate group after grid");
            assert_eq!(
                trail.applied_rate, report.lanes[4].rate,
                "lane rate is the rate applied during the bin"
            );
        }
        assert_eq!(reports[0].controller.as_ref().unwrap().applied_rate, 0.1);
        // The next bin's applied rate is the previous bin's decision.
        for pair in reports.windows(2) {
            let (prev, next) = (
                pair[0].controller.as_ref().unwrap(),
                pair[1].controller.as_ref().unwrap(),
            );
            assert_eq!(prev.decided_rate, next.applied_rate);
        }
    }

    #[test]
    fn controlled_monitor_is_bit_identical_across_paths_and_threads() {
        let packets = four_bins();
        let build = |threads: usize| {
            Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.1 })
                .rates(&[0.05, 0.3])
                .runs(2)
                .controller(ControllerSpec::model_driven())
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(17)
                .threads(threads)
                .build()
        };
        let baseline = run(&mut build(1), &packets);
        assert!(baseline.iter().all(|report| report.controller.is_some()));
        for threads in [2, 3, 4] {
            assert_eq!(run(&mut build(threads), &packets), baseline, "{threads}");
        }
        let mut pushed = build(1);
        let mut reports = Vec::new();
        for packet in &packets {
            reports.extend(push(&mut pushed, packet));
        }
        reports.extend(finish(&mut pushed));
        assert_eq!(reports, baseline, "per-packet push path");
    }

    #[test]
    fn one_packet_bins_match_serial_across_threads() {
        // One packet a bin, all in one batch: every published buffer is a
        // seal's, so every job is a one-packet offer and a score, and the
        // controlled lane (lane 4) is retuned between seals.
        let packets: Vec<PacketRecord> = (0..600)
            .map(|i| packet((i % 7) as u8, i as f64 * 60.0 + 1.0))
            .collect();
        let build = |threads: usize| {
            Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.5 })
                .rates(&[0.3, 0.7])
                .runs(2)
                .controller(ControllerSpec::model_driven())
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(29)
                .threads(threads)
                .build()
        };
        let baseline = run(&mut build(1), &packets);
        assert_eq!(baseline.len(), 600);
        for threads in [2, 3] {
            assert_eq!(run(&mut build(threads), &packets), baseline, "{threads}");
        }
    }

    #[test]
    fn a_panicking_shard_poisons_the_monitor_on_the_caller_and_on_a_helper() {
        // On threads(3) the calling thread claims lanes from the front and
        // the helpers from the back, so lane 0 usually runs on the caller
        // and lane 5 on a helper. Either way the panic is WorkerPanicked
        // naming the lane, the monitor stays poisoned, and the drop joins
        // every helper.
        let batch = PacketBatch::from_records(&four_bins());
        for lane in [0, 4, 5] {
            let mut monitor = Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.5 })
                .rates(&[0.1, 0.5])
                .runs(3)
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(41)
                .threads(3)
                .inject_lane_panic(lane, 100)
                .build();
            let mut sink = Collect::new();
            let lane_of = |error: DriveError| match error {
                DriveError::WorkerPanicked { lane, .. } => lane,
                other => panic!("lane {lane}: expected WorkerPanicked, got {other:?}"),
            };
            let error = monitor.try_push_range_into(&batch, 0..batch.len(), &mut sink);
            assert_eq!(lane_of(error.expect_err("the lane panics")), lane);
            assert!(monitor.is_poisoned());
            let again = monitor.try_finish_into(&mut sink);
            assert_eq!(lane_of(again.expect_err("still poisoned")), lane);
            drop(monitor);
        }
    }

    #[test]
    fn every_claim_order_matches_serial_and_names_the_panicking_lane() {
        // Which thread runs a lane is a matter of timing, so force the
        // extremes: the caller claims every lane, the helpers claim every
        // lane (from the back: the reverse of lane order), or the two take
        // turns. Every order must report bit-identically to threads(1), at
        // 2 and 4 threads, with and without the controller's retune, and a
        // lane's panic must name that lane whoever ran it.
        use crate::runtime::ClaimOrder;
        let packets = flowrank_trace::Workload::flash_crowd()
            .scaled(5.0)
            .synthesize(43);
        let batch = PacketBatch::from_records(&packets);
        let builder = |threads: usize, controlled: bool| {
            let builder = Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.1 })
                .rates(&[0.01, 0.1, 0.5])
                .runs(3)
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(43)
                .threads(threads);
            if controlled {
                builder.controller(ControllerSpec::model_driven())
            } else {
                builder
            }
        };
        let forced = |builder: MonitorBuilder, order: ClaimOrder| {
            let mut monitor = builder.build();
            let runtime = monitor.engine.runtime.as_mut().expect("threads > 1");
            runtime.force_order(order);
            monitor
        };
        let orders = [
            ClaimOrder::Race,
            ClaimOrder::Caller,
            ClaimOrder::Helpers,
            ClaimOrder::Alternate,
        ];
        for controlled in [false, true] {
            let baseline = run(&mut builder(1, controlled).build(), &packets);
            assert!(baseline.len() >= 3, "{} bins", baseline.len());
            for threads in [2, 4] {
                for order in orders {
                    let mut monitor = forced(builder(threads, controlled), order);
                    assert_eq!(
                        run(&mut monitor, &packets),
                        baseline,
                        "threads({threads}), {order:?}, controlled: {controlled}"
                    );
                    assert!(monitor.segment_stats().1 > baseline.len() as u64);
                }
            }
        }
        for lane in [0, 4, 8] {
            for threads in [2, 4] {
                for order in orders {
                    let armed = builder(threads, false).inject_lane_panic(lane, 3000);
                    let mut monitor = forced(armed, order);
                    let error = monitor
                        .try_push_range_into(&batch, 0..batch.len(), &mut Collect::new())
                        .expect_err("the lane panics");
                    match error {
                        DriveError::WorkerPanicked { lane: failed, .. } => {
                            assert_eq!(failed, lane, "threads({threads}), {order:?}")
                        }
                        other => panic!("lane {lane}: expected WorkerPanicked, got {other:?}"),
                    }
                    assert!(monitor.is_poisoned());
                }
            }
        }
    }

    #[test]
    fn attaching_a_controller_never_perturbs_static_lanes() {
        let packets = four_bins();
        let build = |controlled: bool| {
            let builder = Monitor::builder()
                .sampler(SamplerSpec::Random { rate: 0.1 })
                .rates(&[0.05, 0.3])
                .runs(2)
                .bin_length(Timestamp::from_secs_f64(60.0))
                .seed(23);
            if controlled {
                builder.controller(ControllerSpec::budget_tracking())
            } else {
                builder
            }
            .build()
        };
        let plain = run(&mut build(false), &packets);
        let controlled = run(&mut build(true), &packets);
        assert_eq!(plain.len(), controlled.len());
        for (p, c) in plain.iter().zip(&controlled) {
            assert_eq!(&c.lanes[..p.lanes.len()], &p.lanes[..]);
        }
    }

    #[test]
    fn budget_controller_steers_kept_packets_toward_budget() {
        // 2100 packets per bin at an initial 50% rate keeps ~1050 — far over
        // a 50-packet budget, so the rate must fall bin over bin (clamped at
        // ×0.25 per step) until kept packets approach the budget.
        let spec = ControllerSpec::BudgetTracking {
            budget_per_bin: 50,
            min_rate: 0.001,
            max_rate: 1.0,
            initial_rate: 0.5,
        };
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.1 })
            .controller(spec)
            .bin_length(Timestamp::from_secs_f64(60.0))
            .seed(31)
            .build();
        let reports = run(&mut monitor, &four_bins());
        let lane = reports[0].controller.as_ref().unwrap().lane;
        let rates: Vec<f64> = reports.iter().map(|r| r.lanes[lane].rate).collect();
        assert!(
            rates.windows(2).all(|w| w[1] < w[0]),
            "rate must fall while over budget: {rates:?}"
        );
        let first = reports.first().unwrap().lanes[lane].sampled_packets;
        let last = reports.last().unwrap().lanes[lane].sampled_packets;
        assert!(
            last < first / 4,
            "kept packets must shrink: {first} → {last}"
        );
    }

    #[test]
    fn non_decreasing_timestamps_never_trip_the_contract_check() {
        // Equal timestamps and bin-boundary jumps are both allowed.
        let mut monitor = Monitor::builder()
            .sampler(SamplerSpec::Random { rate: 0.5 })
            .bin_length(Timestamp::from_secs_f64(60.0))
            .build();
        push(&mut monitor, &packet(1, 10.0));
        push(&mut monitor, &packet(2, 10.0));
        push(&mut monitor, &packet(1, 200.0));
        assert!(finish(&mut monitor).is_some());
    }

    #[test]
    fn touched_lists_every_counted_flow_once_in_first_keep_order() {
        use flowrank_stats::rng::Rng;
        // A Sec. 8-sized bin: 5,000 packets, a new flow at about every
        // third packet, repeats skewed toward the oldest flows. Ids are
        // slab positions, so they are handed out in first-packet order.
        let mut rng = Pcg64::seed_from_u64(5);
        let (mut ids, mut flows) = (Vec::new(), 0u32);
        for _ in 0..5_000 {
            if flows == 0 || rng.next_f64() < 0.3 {
                ids.push(flows);
                flows += 1;
            } else {
                let u = rng.next_f64();
                ids.push((f64::from(flows) * u * u) as u32);
            }
        }
        // What a segment ending at packet `i` tells its lanes: the flows
        // the truth holds by then.
        let flows_by: Vec<usize> = ids
            .iter()
            .scan(0, |held, &id| {
                *held = (*held).max(id as usize + 1);
                Some(*held)
            })
            .collect();
        let records: Vec<PacketRecord> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let [_, a, b, c] = id.to_be_bytes();
                PacketRecord::tcp(
                    Timestamp::from_secs_f64(i as f64 * 1e-3),
                    Ipv4Addr::new(10, a, b, c),
                    1000,
                    Ipv4Addr::new(100, 64, 0, 1),
                    80,
                    500,
                    0,
                )
            })
            .collect();
        let batch = PacketBatch::from_records(&records);
        let specs = [0.001, 0.01, 0.1, 0.5, 1.0]
            .map(|rate| SamplerSpec::Random { rate })
            .into_iter()
            .chain([SamplerSpec::Periodic {
                rate: 0.1,
                random_phase: true,
            }]);
        for (lane_no, spec) in specs.enumerate() {
            let seed = 40 + lane_no as u64;
            // The per-packet recount: the same sampler stage, one packet at
            // a time.
            let mut stage = SamplerStage::new(spec.build(seed), Pcg64::seed_from_u64(seed));
            let mut one = Vec::new();
            let keeps: Vec<bool> = (0..ids.len())
                .map(|i| {
                    one.clear();
                    stage.admit_batch(&batch, i..i + 1, &mut one);
                    !one.is_empty()
                })
                .collect();
            for chunk in [1, 37, 4096, ids.len()] {
                let mut lane = Lane::new(&spec, 0.0, 0, None, 0, seed, None);
                let mut counts = vec![0u32; flows as usize];
                let (mut order, mut packets) = (Vec::new(), 0u64);
                for start in (0..ids.len()).step_by(chunk) {
                    let end = (start + chunk).min(ids.len());
                    lane.offer_batch(&Segment {
                        batch: &batch,
                        range: start..end,
                        ids: &ids[start..end],
                        flows: flows_by[end - 1],
                        truth: None,
                    });
                    for i in (start..end).filter(|&i| keeps[i]) {
                        let id = ids[i] as usize;
                        if counts[id] == 0 {
                            order.push(ids[i]);
                        }
                        counts[id] += 1;
                        packets += 1;
                    }
                    let at = format!("{spec:?}, chunks of {chunk}, packets ..{end}");
                    assert_eq!(lane.counts.touched, order, "{at}");
                    assert_eq!(lane.counts.counts, counts[..flows_by[end - 1]], "{at}");
                    assert_eq!(lane.counts.packets, packets, "{at}");
                }
            }
        }
    }
}
