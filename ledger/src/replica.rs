//! The stage replica of the traced run: the serial engine's work redone
//! through the layers' public functions, one timed call per stage.
//!
//! The real call (`Monitor::drive`, `Fleet::drive`) is a black box to a
//! harness that times from outside. The replica opens it: it walks the same
//! input through key derivation, ground-truth classification, per-lane
//! sampling, sampled-table update, top-k offer, ranking and scoring, and
//! builds the same `BinReport`s. Because those reports must equal the real
//! run's — lane for lane, swap count for swap count — a replica that drifts
//! from the engine fails the run instead of reporting fiction.
//!
//! Stages run *stage-major*: one timed call covers a stage for every
//! monitor (tenant) and lane that has work in the current chunk. For a
//! single monitor that is the engine's own order per lane group; for a
//! fleet it keeps the clock out of the per-tenant loop, where a 500 ms
//! window gives a tenant three packets and a timer pair would cost more
//! than the work it times.

use std::ops::Range;
use std::time::Instant;

use flowrank_core::metrics::{GroundTruthRanking, SizedFlow};
use flowrank_monitor::{BinReport, LaneReport, SamplerSpec, TopKReport};
use flowrank_net::{AnyFlowKey, FlowDefinition, FlowMap, FlowTable, PacketBatch, Timestamp};
use flowrank_sampling::SamplerStage;
use flowrank_stats::rng::{derive_seeds, Pcg64, SeedableRng};
use flowrank_topk::TopKTracker;

use crate::harness::{MonitorShape, Stage, Stages};
use crate::spans::Recorder;

/// The salt the monitor mixes into a lane's seed for its top-k backend's
/// random stream (`TRACKER_SEED_SALT` in `flowrank-monitor`, which keeps it
/// private). If the monitor changes it, the replica's reports stop matching
/// and the traced run fails — which is the point.
const TRACKER_SEED_SALT: u64 = 0x70B5_A17E_D00D_F00D;

struct Lane {
    rate: f64,
    rate_id: usize,
    run: usize,
    seed: u64,
    stage: SamplerStage<Pcg64>,
    table: FlowTable<AnyFlowKey>,
    tracker: Option<Box<dyn TopKTracker + Send>>,
    tracker_rng: Pcg64,
    kept: Vec<u32>,
}

/// One monitor's worth of replica state.
struct Monitor {
    bin_nanos: u64,
    top_t: usize,
    truth: FlowTable<AnyFlowKey>,
    lanes: Vec<Lane>,
    keys: Vec<AnyFlowKey>,
    bin: u64,
    saw_packet: bool,
    ranking: Option<GroundTruthRanking<AnyFlowKey>>,
}

impl Monitor {
    fn new(shape: &MonitorShape) -> Self {
        let mut lanes = Vec::with_capacity(shape.lanes());
        for (rate_id, &rate) in shape.rates.iter().enumerate() {
            // The derivation `MonitorBuilder::build` uses for a rate grid.
            for (run, seed) in derive_seeds(shape.seed ^ rate.to_bits(), shape.runs)
                .into_iter()
                .enumerate()
            {
                lanes.push(Lane {
                    rate,
                    rate_id,
                    run,
                    seed,
                    stage: SamplerStage::new(
                        SamplerSpec::Random { rate }.build(seed),
                        Pcg64::seed_from_u64(seed),
                    ),
                    table: FlowTable::new(),
                    tracker: shape.topk.map(|spec| spec.build()),
                    tracker_rng: Pcg64::seed_from_u64(seed ^ TRACKER_SEED_SALT),
                    kept: Vec::new(),
                });
            }
        }
        Monitor {
            bin_nanos: shape.bin_length().as_nanos().max(1),
            top_t: shape.top_t,
            truth: FlowTable::new(),
            lanes,
            keys: Vec::new(),
            bin: 0,
            saw_packet: false,
            ranking: None,
        }
    }
}

/// A within-bin run of packets of one monitor's batch.
struct Segment {
    monitor: usize,
    work: usize,
    range: Range<usize>,
}

/// Counts the replica keeps beside the stage times.
#[derive(Debug, Default, Clone)]
pub struct ReplicaCounts {
    /// Packets offered to lanes (packets × lanes).
    pub offered: u64,
    /// Packets the lanes kept.
    pub kept: u64,
    /// Bins sealed.
    pub bins: u64,
    /// Ground-truth flows over all sealed bins.
    pub flows: u64,
    /// Sum over sealed bins of ground-truth `len / capacity`.
    pub load_factor_sum: f64,
}

/// Holds the replica's reports against the real run's: the same bins of the
/// same monitors (by index), in the same order, each report equal in every
/// field. The real run's idle bins, which the replica never opens, are left
/// out by the caller.
pub fn verify<'r>(
    replica: impl ExactSizeIterator<Item = (usize, &'r BinReport)>,
    real: impl ExactSizeIterator<Item = (usize, &'r BinReport)>,
) -> Result<(), String> {
    if replica.len() != real.len() {
        return Err(format!(
            "replica closed {} bins, the real run {}",
            replica.len(),
            real.len()
        ));
    }
    let kept = |report: &BinReport| -> Vec<u64> {
        report.lanes.iter().map(|l| l.sampled_packets).collect()
    };
    for ((m, ours), (n, theirs)) in replica.zip(real) {
        if m != n || ours != theirs {
            return Err(format!(
                "replica and real run disagree: monitor {m} bin {} has {} flows and kept {:?}, \
                 monitor {n} bin {} has {} flows, kept {:?} and {} evictions",
                ours.bin_index,
                ours.flows,
                kept(ours),
                theirs.bin_index,
                theirs.flows,
                kept(theirs),
                theirs.evictions,
            ));
        }
    }
    Ok(())
}

/// The replica of one monitor or of a fleet of them.
pub struct Replica {
    monitors: Vec<Monitor>,
    /// Whether the workload's monitors carry a top-k backend; the offer
    /// stage runs only then.
    has_topk: bool,
    side_map: FlowMap<AnyFlowKey, ()>,
    segments: Vec<Segment>,
    /// `(monitor, bin being closed)` of the current round.
    sealing: Vec<(usize, u64)>,
    /// Counts accumulated over every pass.
    pub counts: ReplicaCounts,
}

impl Replica {
    /// A replica of `monitors.len()` monitors.
    pub fn new(monitors: &[MonitorShape]) -> Self {
        Replica {
            monitors: monitors.iter().map(Monitor::new).collect(),
            has_topk: monitors.iter().any(|shape| shape.topk.is_some()),
            side_map: FlowMap::new(),
            segments: Vec::new(),
            sealing: Vec::new(),
            counts: ReplicaCounts::default(),
        }
    }

    /// The stages whose sum stands against the real call: everything the
    /// engine does between taking a chunk and handing over a report.
    pub fn engine_stages(&self) -> Vec<Stage> {
        let mut stages = vec![
            Stage::Demux,
            Stage::KeyDerive,
            Stage::Classify,
            Stage::Keep,
            Stage::LaneUpdate,
            Stage::Rank,
            Stage::Score,
        ];
        if self.has_topk {
            stages.push(Stage::TopkOffer);
        }
        stages
    }

    /// Walks one chunk per listed monitor through the stages. `work` pairs a
    /// monitor index with that monitor's packets of the chunk; `deliver`
    /// receives every report a bin boundary inside the chunk closes.
    pub fn push(
        &mut self,
        work: &[(usize, &PacketBatch)],
        stages: &mut Stages,
        rec: &mut Recorder,
        deliver: &mut dyn FnMut(usize, &BinReport),
    ) {
        let mut cursors = vec![0usize; work.len()];
        loop {
            // The next within-bin segment of every monitor with packets left.
            self.segments.clear();
            self.sealing.clear();
            for (w, (m, batch)) in work.iter().enumerate() {
                let start = cursors[w];
                if start >= batch.len() {
                    continue;
                }
                let monitor = &self.monitors[*m];
                let bin_of = |i: usize| batch.ts_nanos()[i] / monitor.bin_nanos;
                // A packet older than the open bin counts into it, as in
                // `Monitor::push_batch_into`.
                let bin = bin_of(start).max(monitor.bin);
                let mut end = start + 1;
                while end < batch.len() && bin_of(end) <= bin {
                    end += 1;
                }
                if bin > monitor.bin {
                    if monitor.saw_packet {
                        self.sealing.push((*m, monitor.bin));
                    }
                    self.monitors[*m].bin = bin;
                }
                self.segments.push(Segment {
                    monitor: *m,
                    work: w,
                    range: start..end,
                });
                cursors[w] = end;
            }
            if self.segments.is_empty() {
                return;
            }
            self.seal(stages, rec, deliver);
            self.observe(work, stages, rec);
        }
    }

    /// Closes the open bin of every monitor that saw a packet.
    pub fn finish(
        &mut self,
        stages: &mut Stages,
        rec: &mut Recorder,
        deliver: &mut dyn FnMut(usize, &BinReport),
    ) {
        self.sealing.clear();
        let open = self.monitors.iter().enumerate();
        self.sealing.extend(
            open.filter(|(_, monitor)| monitor.saw_packet)
                .map(|(m, monitor)| (m, monitor.bin)),
        );
        self.seal(stages, rec, deliver);
        // Rewound but warm: the next pass starts at bin 0 with the tables'
        // capacity kept, like the real monitor's recycled tables within a
        // pass.
        for monitor in &mut self.monitors {
            monitor.bin = 0;
        }
    }

    /// Ranks, scores and reports the bins listed in `sealing`.
    fn seal(
        &mut self,
        stages: &mut Stages,
        rec: &mut Recorder,
        deliver: &mut dyn FnMut(usize, &BinReport),
    ) {
        if self.sealing.is_empty() {
            return;
        }
        let start = Instant::now();
        for &(m, _) in &self.sealing {
            let monitor = &mut self.monitors[m];
            monitor.ranking = Some(GroundTruthRanking::new(
                monitor
                    .truth
                    .iter_sizes()
                    .map(|(key, packets)| SizedFlow { key, packets })
                    .collect(),
                monitor.top_t,
            ));
        }
        stages.add(Stage::Rank, start, self.sealing.len() as u64, rec);

        let mut reports: Vec<(usize, BinReport)> = Vec::with_capacity(self.sealing.len());
        let mut lane_closes = 0u64;
        let start = Instant::now();
        for &(m, bin_index) in &self.sealing {
            let monitor = &mut self.monitors[m];
            let truth = monitor.ranking.as_ref().expect("ranked above");
            let top_t = monitor.top_t;
            let lanes: Vec<LaneReport> = monitor
                .lanes
                .iter_mut()
                .map(|lane| {
                    let report = LaneReport {
                        rate: lane.rate,
                        rate_id: lane.rate_id,
                        run: lane.run,
                        sampler: "random",
                        sampled_flows: lane.table.flow_count(),
                        sampled_packets: lane.table.total_packets(),
                        outcome: truth.compare_with(|key| lane.table.size_of(key)),
                        topk: lane.tracker.as_ref().map(|tracker| TopKReport {
                            backend: tracker.name(),
                            entries: tracker.top(top_t),
                            memory_entries: tracker.memory_entries(),
                        }),
                        controlled: false,
                    };
                    lane.table.clear();
                    lane.stage.start_interval(Pcg64::seed_from_u64(lane.seed));
                    if let Some(tracker) = &mut lane.tracker {
                        tracker.reset();
                        lane.tracker_rng = Pcg64::seed_from_u64(lane.seed ^ TRACKER_SEED_SALT);
                    }
                    report
                })
                .collect();
            lane_closes += lanes.len() as u64;
            reports.push((
                m,
                BinReport {
                    bin_index,
                    bin_start: Timestamp::from_micros(
                        bin_index.saturating_mul(monitor.bin_nanos / 1_000),
                    ),
                    packets: monitor.truth.total_packets(),
                    flows: monitor.truth.flow_count(),
                    lanes,
                    controller: None,
                    evictions: 0,
                },
            ));
        }
        stages.add(Stage::Score, start, lane_closes, rec);

        for (m, report) in &reports {
            let monitor = &mut self.monitors[*m];
            self.counts.bins += 1;
            self.counts.flows += report.flows as u64;
            self.counts.load_factor_sum +=
                report.flows as f64 / monitor.truth.capacity().max(1) as f64;
            monitor.truth.clear();
            monitor.ranking = None;
            monitor.saw_packet = false;
            deliver(*m, report);
        }
    }

    fn observe(&mut self, work: &[(usize, &PacketBatch)], stages: &mut Stages, rec: &mut Recorder) {
        let packets: u64 = self.segments.iter().map(|s| s.range.len() as u64).sum();

        let start = Instant::now();
        for segment in &self.segments {
            let batch = work[segment.work].1;
            let monitor = &mut self.monitors[segment.monitor];
            monitor.keys.clear();
            monitor.keys.extend(
                segment
                    .range
                    .clone()
                    .map(|i| batch.flow_key(i, FlowDefinition::FiveTuple)),
            );
            monitor.saw_packet = true;
        }
        stages.add(Stage::KeyDerive, start, packets, rec);

        let start = Instant::now();
        for segment in &self.segments {
            let monitor = &mut self.monitors[segment.monitor];
            monitor
                .truth
                .observe_batch(&monitor.keys, work[segment.work].1, segment.range.clone());
        }
        stages.add(Stage::Classify, start, packets, rec);

        // Side measurement: the bare map under the ground-truth table, fed
        // the same key stream, so hashing and probing can be told apart
        // from the per-flow counters `observe_batch` also maintains.
        let start = Instant::now();
        for segment in &self.segments {
            for key in &self.monitors[segment.monitor].keys {
                self.side_map.upsert(*key, || (), |_| ());
            }
        }
        stages.add(Stage::Upsert, start, packets, rec);
        if self.side_map.len() > 1 << 16 {
            self.side_map.clear();
        }

        let mut offered = 0u64;
        let start = Instant::now();
        for segment in &self.segments {
            let batch = work[segment.work].1;
            for lane in &mut self.monitors[segment.monitor].lanes {
                lane.kept.clear();
                lane.stage
                    .admit_batch(batch, segment.range.clone(), &mut lane.kept);
                offered += segment.range.len() as u64;
            }
        }
        stages.add(Stage::Keep, start, offered, rec);

        let mut kept = 0u64;
        let start = Instant::now();
        for segment in &self.segments {
            let batch = work[segment.work].1;
            let monitor = &mut self.monitors[segment.monitor];
            for lane in &mut monitor.lanes {
                for &i in &lane.kept {
                    let i = i as usize;
                    lane.table.observe_keyed_parts(
                        monitor.keys[i - segment.range.start],
                        batch.timestamp(i),
                        batch.length(i),
                        batch.tcp_seq(i),
                    );
                }
                kept += lane.kept.len() as u64;
            }
        }
        stages.add(Stage::LaneUpdate, start, kept, rec);
        self.counts.offered += offered;
        self.counts.kept += kept;

        if !self.has_topk {
            return;
        }
        let mut offers = 0u64;
        let start = Instant::now();
        for segment in &self.segments {
            let batch = work[segment.work].1;
            for lane in &mut self.monitors[segment.monitor].lanes {
                if let Some(tracker) = &mut lane.tracker {
                    for &i in &lane.kept {
                        tracker.observe(&batch.five_tuple(i as usize), &mut lane.tracker_rng);
                    }
                    offers += lane.kept.len() as u64;
                }
            }
        }
        stages.add(Stage::TopkOffer, start, offers, rec);
    }
}
