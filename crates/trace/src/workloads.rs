//! Deterministic scenario workload engine.
//!
//! The paper's claims are about how well flow *rank* survives sampling under
//! real traffic shapes, yet a single Sprint-like population exercises only
//! one of those shapes. This module is a catalog of parameterised, seedable
//! traffic models that stress the ranking pipeline in qualitatively
//! different ways:
//!
//! * [`Workload::HeavyTail`] — Pareto flow sizes with a tunable tail index α
//!   (the paper's β), from "mild" (α near 3) to "wild" (α near 1.1);
//! * [`Workload::FlashCrowd`] — a sudden arrival-rate spike whose flows all
//!   land on a handful of hot /24 prefixes (many clients, one service);
//! * [`Workload::DdosFlood`] — a huge population of 1–3-packet flows aimed
//!   at a few victim prefixes, drowning a small set of long-lived elephants;
//! * [`Workload::PortScan`] — one source sweeping thousands of destination
//!   addresses, one packet per 5-tuple, over light background traffic;
//! * [`Workload::RankChurn`] — the heavy-hitter *identities* rotate every
//!   measurement bin, so top-t membership never settles;
//! * [`Workload::Mixed`] — an internet-like composition of all of the above.
//!
//! Every scenario emits ordinary [`FlowRecord`]s, so the one synthesis path
//! ([`SynthesisStream`]) turns any of them into a packet stream, trace or
//! SoA batch unchanged. Destination addresses come from the Zipf
//! prefix-popularity model of [`crate::addressing`] (or deliberate prefix
//! sweeps), so `/24` aggregation is non-trivial in every scenario.
//!
//! # Determinism
//!
//! A workload is a pure function of its parameters and the `seed` passed to
//! `Workload::generate_flows` / [`Workload::synthesize`]: all randomness
//! flows from [`Pcg64`] generators seeded with `seed` xor a per-component
//! salt, and no iteration order depends on hash internals. The conformance
//! harness in `flowrank-sim` relies on this to pin golden digests of whole
//! report streams per (scenario, sampler, top-k) cell; regenerate them with
//! `scripts/regen_goldens.sh` after an *intentional* behaviour change (the
//! script refuses to run on a dirty tree, so a regeneration is always its
//! own commit).

use std::net::Ipv4Addr;

use flowrank_net::{FiveTuple, PacketBatch, PacketRecord, Protocol, Timestamp};
use flowrank_stats::dist::{ContinuousDistribution, Exponential};
use flowrank_stats::rng::{Pcg64, Rng, SeedableRng};

use crate::addressing::PrefixAddresser;
use crate::arrivals::PoissonArrivals;
use crate::flow_record::{synthetic_key, FlowRecord};
use crate::generator::{generate_flow_population, FlowPopulationConfig, SizeModel};
use crate::stream::SynthesisStream;
use crate::synthesis::SynthesisConfig;

/// Salt separating a workload's packet-placement stream from its flow stream.
pub(crate) const SYNTHESIS_SALT: u64 = 0x5CE2_A110_0000_0001;
/// Salt for flash-crowd spike randomness.
const SPIKE_SALT: u64 = 0xF1A5_4C20_3D00_0002;
/// Salt for DDoS-flood randomness.
const FLOOD_SALT: u64 = 0xDD05_F100_D000_0003;
/// Salt for port-scan randomness.
const SCAN_SALT: u64 = 0x5CAA_0000_0000_0004;
/// Salt for rank-churn randomness.
const CHURN_SALT: u64 = 0xC4C4_0000_0000_0005;
/// Flow-index namespaces keep manually keyed components from sharing
/// synthetic 5-tuples with the Poisson background population (which numbers
/// its flows from zero).
const SPIKE_INDEX_BASE: u64 = 10_000_000;
const FLOOD_INDEX_BASE: u64 = 20_000_000;
const CHURN_INDEX_BASE: u64 = 30_000_000;
const MICE_INDEX_BASE: u64 = 40_000_000;

/// A parameterised, seedable traffic scenario.
///
/// Construct one directly, or use the default-parameterised constructors
/// (`Workload::heavy_tail`, [`Workload::flash_crowd`], …) and
/// [`Workload::catalog`], which is the conformance-scale set the golden
/// digests are pinned on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Heavy-tailed Pareto flow sizes with tunable tail index `alpha`.
    HeavyTail {
        /// Pareto tail index (the paper's β); smaller is heavier.
        alpha: f64,
        /// Flow arrival rate in flows per second.
        flow_rate: f64,
        /// Trace length in seconds.
        duration_secs: f64,
    },
    /// Flash crowd: baseline traffic plus a sudden arrival spike whose flows
    /// concentrate on a few hot /24 prefixes.
    FlashCrowd {
        /// Baseline flow arrival rate (flows per second).
        base_rate: f64,
        /// Spike flow arrival rate during the crowd window.
        spike_rate: f64,
        /// Start of the crowd window in seconds.
        spike_start: f64,
        /// Length of the crowd window in seconds.
        spike_secs: f64,
        /// Number of hot /24 prefixes the crowd lands on.
        hot_prefixes: usize,
        /// Trace length in seconds.
        duration_secs: f64,
    },
    /// DDoS-like flood: a handful of long-lived elephants under a storm of
    /// 1–3-packet flows aimed at a few victim prefixes.
    DdosFlood {
        /// Number of long-lived elephant flows.
        elephants: usize,
        /// Packets per elephant (spread slightly so ranks are distinct).
        elephant_packets: u64,
        /// Arrival rate of the tiny attack flows (flows per second).
        mice_rate: f64,
        /// Number of victim /24 prefixes absorbing the flood.
        victim_prefixes: usize,
        /// Trace length in seconds.
        duration_secs: f64,
    },
    /// Port-scan sweep: one source walks thousands of destination addresses
    /// (one packet per 5-tuple) over light background traffic.
    PortScan {
        /// Probe rate in probes per second (each probe is one 1-packet flow).
        scan_rate: f64,
        /// Size of the swept destination-address pool (sequential hosts, so
        /// the sweep crosses `targets / 256` distinct /24 prefixes).
        targets: usize,
        /// Background flow arrival rate (flows per second).
        background_rate: f64,
        /// Trace length in seconds.
        duration_secs: f64,
    },
    /// Rank churn: the heavy-hitter identities rotate every bin, so the
    /// top-t membership of consecutive bins overlaps only partially.
    RankChurn {
        /// Measurement-bin length the rotation is aligned to.
        bin_secs: f64,
        /// Number of bins in the trace.
        bins: usize,
        /// Heavy flows active in each bin.
        heavy_per_bin: usize,
        /// Packets of the largest heavy flow in each bin.
        heavy_packets: u64,
        /// Background mice arrival rate (flows per second).
        mice_rate: f64,
    },
    /// Internet-like mix: heavy-tail base load + a flash crowd + a port scan
    /// + a tiny-flow flood, all in one trace.
    Mixed {
        /// Intensity multiplier applied to every component's arrival rate.
        scale: f64,
        /// Trace length in seconds.
        duration_secs: f64,
    },
}

impl Workload {
    /// Heavy-tail scenario with tail index `alpha` at catalog scale.
    pub(crate) fn heavy_tail(alpha: f64) -> Self {
        Workload::HeavyTail {
            alpha,
            flow_rate: 4.0,
            duration_secs: 170.0,
        }
    }

    /// Flash-crowd scenario at catalog scale.
    pub fn flash_crowd() -> Self {
        Workload::FlashCrowd {
            base_rate: 3.0,
            spike_rate: 35.0,
            spike_start: 70.0,
            spike_secs: 20.0,
            hot_prefixes: 3,
            duration_secs: 170.0,
        }
    }

    /// DDoS-flood scenario at catalog scale.
    pub fn ddos_flood() -> Self {
        Workload::DdosFlood {
            elephants: 8,
            elephant_packets: 300,
            mice_rate: 15.0,
            victim_prefixes: 4,
            duration_secs: 170.0,
        }
    }

    /// Port-scan scenario at catalog scale.
    pub(crate) fn port_scan() -> Self {
        Workload::PortScan {
            scan_rate: 12.0,
            targets: 2_048,
            background_rate: 2.5,
            duration_secs: 170.0,
        }
    }

    /// Rank-churn scenario at catalog scale (three 60-second bins).
    pub fn rank_churn() -> Self {
        Workload::RankChurn {
            bin_secs: 60.0,
            bins: 3,
            heavy_per_bin: 8,
            heavy_packets: 260,
            mice_rate: 4.0,
        }
    }

    /// Mixed internet-like scenario at catalog scale.
    pub fn mixed() -> Self {
        Workload::Mixed {
            scale: 0.4,
            duration_secs: 170.0,
        }
    }

    /// The conformance-scale catalog: one instance of every scenario, in the
    /// fixed order the golden digests are recorded in.
    pub fn catalog() -> Vec<Workload> {
        vec![
            Workload::heavy_tail(1.3),
            Workload::flash_crowd(),
            Workload::ddos_flood(),
            Workload::port_scan(),
            Workload::rank_churn(),
            Workload::mixed(),
        ]
    }

    /// Short kebab-case scenario name (stable: golden digests key on it).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::HeavyTail { .. } => "heavy-tail",
            Workload::FlashCrowd { .. } => "flash-crowd",
            Workload::DdosFlood { .. } => "ddos-flood",
            Workload::PortScan { .. } => "port-scan",
            Workload::RankChurn { .. } => "rank-churn",
            Workload::Mixed { .. } => "mixed",
        }
    }

    /// Looks a catalog-scale scenario up by its [`Workload::name`].
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::catalog().into_iter().find(|w| w.name() == name)
    }

    /// Scales every arrival-rate-like parameter by `scale` (per-flow
    /// statistics are untouched), mirroring
    /// `FlowPopulationConfig::scaled`. Used by `reproduce --scenario` to
    /// grow or shrink a scenario without changing its shape.
    pub fn scaled(self, scale: f64) -> Self {
        let scale = scale.max(0.0);
        let count = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        match self {
            Workload::HeavyTail {
                alpha,
                flow_rate,
                duration_secs,
            } => Workload::HeavyTail {
                alpha,
                flow_rate: flow_rate * scale,
                duration_secs,
            },
            Workload::FlashCrowd {
                base_rate,
                spike_rate,
                spike_start,
                spike_secs,
                hot_prefixes,
                duration_secs,
            } => Workload::FlashCrowd {
                base_rate: base_rate * scale,
                spike_rate: spike_rate * scale,
                spike_start,
                spike_secs,
                hot_prefixes,
                duration_secs,
            },
            Workload::DdosFlood {
                elephants,
                elephant_packets,
                mice_rate,
                victim_prefixes,
                duration_secs,
            } => Workload::DdosFlood {
                elephants: count(elephants),
                elephant_packets,
                mice_rate: mice_rate * scale,
                victim_prefixes,
                duration_secs,
            },
            Workload::PortScan {
                scan_rate,
                targets,
                background_rate,
                duration_secs,
            } => Workload::PortScan {
                scan_rate: scan_rate * scale,
                targets,
                background_rate: background_rate * scale,
                duration_secs,
            },
            Workload::RankChurn {
                bin_secs,
                bins,
                heavy_per_bin,
                heavy_packets,
                mice_rate,
            } => Workload::RankChurn {
                bin_secs,
                bins,
                heavy_per_bin: count(heavy_per_bin),
                heavy_packets,
                mice_rate: mice_rate * scale,
            },
            Workload::Mixed {
                scale: intensity,
                duration_secs,
            } => Workload::Mixed {
                scale: intensity * scale,
                duration_secs,
            },
        }
    }

    /// Generates the scenario's flow-level records, deterministically from
    /// `seed`.
    pub(crate) fn generate_flows(&self, seed: u64) -> Vec<FlowRecord> {
        match *self {
            Workload::HeavyTail {
                alpha,
                flow_rate,
                duration_secs,
            } => heavy_tail_flows(alpha, flow_rate, duration_secs, seed),
            Workload::FlashCrowd {
                base_rate,
                spike_rate,
                spike_start,
                spike_secs,
                hot_prefixes,
                duration_secs,
            } => flash_crowd_flows(
                base_rate,
                spike_rate,
                spike_start,
                spike_secs,
                hot_prefixes,
                duration_secs,
                seed,
            ),
            Workload::DdosFlood {
                elephants,
                elephant_packets,
                mice_rate,
                victim_prefixes,
                duration_secs,
            } => ddos_flood_flows(
                elephants,
                elephant_packets,
                mice_rate,
                victim_prefixes,
                duration_secs,
                seed,
            ),
            Workload::PortScan {
                scan_rate,
                targets,
                background_rate,
                duration_secs,
            } => port_scan_flows(scan_rate, targets, background_rate, duration_secs, seed),
            Workload::RankChurn {
                bin_secs,
                bins,
                heavy_per_bin,
                heavy_packets,
                mice_rate,
            } => rank_churn_flows(
                bin_secs,
                bins,
                heavy_per_bin,
                heavy_packets,
                mice_rate,
                seed,
            ),
            Workload::Mixed {
                scale,
                duration_secs,
            } => mixed_flows(scale, duration_secs, seed),
        }
    }

    /// Expands the scenario into a time-sorted packet trace: its
    /// [`Workload::stream`], drained.
    pub fn synthesize(&self, seed: u64) -> Vec<PacketRecord> {
        self.stream(seed).into_records()
    }

    /// Expands the scenario straight into a SoA [`PacketBatch`]: its
    /// [`Workload::stream`], drained into one batch (column-for-column equal
    /// to batching [`Workload::synthesize`]).
    pub fn synthesize_batch(&self, seed: u64) -> PacketBatch {
        self.stream(seed).into_batch()
    }

    /// Opens the scenario as a pull-based packet stream of its flows, with
    /// peak memory independent of trace length. See [`SynthesisStream`] for
    /// the order.
    pub fn stream(&self, seed: u64) -> SynthesisStream {
        SynthesisStream::new(
            self.generate_flows(seed),
            &SynthesisConfig::default(),
            seed ^ SYNTHESIS_SALT,
        )
    }

    /// [`Workload::stream`] with an explicit window length (the same flows
    /// and placement draws — window length only sets chunk granularity).
    /// Sub-second windows make a paced replay ([`crate::PacedReplay`])
    /// smooth instead of bursty.
    pub fn stream_with_window(&self, seed: u64, window: Timestamp) -> SynthesisStream {
        self.stream(seed).windowed(window)
    }
}

/// The Poisson background population shared by several scenarios: Pareto
/// sizes over a Zipf-popular /24 pool.
fn background_config(flow_rate: f64, duration_secs: f64, shape: f64) -> FlowPopulationConfig {
    FlowPopulationConfig {
        duration_secs,
        flow_rate: flow_rate.max(f64::MIN_POSITIVE),
        size_model: SizeModel::Pareto {
            mean_packets: 9.6,
            shape,
        },
        mean_flow_duration: 6.0,
        packet_bytes: 500,
        prefix_count: 512,
        prefix_zipf_exponent: 1.1,
    }
}

fn heavy_tail_flows(alpha: f64, flow_rate: f64, duration_secs: f64, seed: u64) -> Vec<FlowRecord> {
    generate_flow_population(&background_config(flow_rate, duration_secs, alpha), seed)
}

fn flash_crowd_flows(
    base_rate: f64,
    spike_rate: f64,
    spike_start: f64,
    spike_secs: f64,
    hot_prefixes: usize,
    duration_secs: f64,
    seed: u64,
) -> Vec<FlowRecord> {
    let mut flows = heavy_tail_flows(1.5, base_rate, duration_secs, seed);
    let mut rng = Pcg64::seed_from_u64(seed ^ SPIKE_SALT);
    // The crowd lands on the *popular* end of the same prefix pool the
    // background uses, so under /24 aggregation the hot prefixes spike on
    // top of their baseline volume.
    let hot = PrefixAddresser::new(hot_prefixes.max(1), 1.2);
    let sizes = Exponential::with_mean(4.0).expect("positive mean");
    let durations = Exponential::with_mean(1.5).expect("positive mean");
    let starts = PoissonArrivals::new(spike_rate.max(f64::MIN_POSITIVE))
        .arrivals_until(spike_secs, &mut rng);
    for (index, offset) in starts.into_iter().enumerate() {
        // Request-like flows: small, short, all aimed at the hot prefixes.
        let packets = sizes.sample(&mut rng).round().max(1.0) as u64;
        let dst = hot.draw(&mut rng);
        let key = synthetic_key(SPIKE_INDEX_BASE + index as u64, dst, 443);
        let duration = if packets == 1 {
            0.0
        } else {
            durations.sample(&mut rng)
        };
        flows.push(FlowRecord::new(
            key,
            packets,
            packets * 500,
            spike_start + offset,
            duration,
        ));
    }
    flows
}

fn ddos_flood_flows(
    elephants: usize,
    elephant_packets: u64,
    mice_rate: f64,
    victim_prefixes: usize,
    duration_secs: f64,
    seed: u64,
) -> Vec<FlowRecord> {
    let mut rng = Pcg64::seed_from_u64(seed ^ FLOOD_SALT);
    let legit = PrefixAddresser::new(64, 1.05);
    let victims = PrefixAddresser::new(victim_prefixes.max(1), 1.0);
    let mut flows = Vec::new();
    // The elephants: long-lived flows spanning almost the whole trace, with
    // deliberately distinct sizes so the true ranking is unambiguous.
    for i in 0..elephants {
        let start = rng.next_f64() * 4.0;
        let duration = (duration_secs - start - rng.next_f64() * 4.0).max(1.0);
        let packets = elephant_packets + (elephants - i) as u64 * 13;
        let key = synthetic_key(i as u64, legit.draw(&mut rng), 443);
        flows.push(FlowRecord::new(
            key,
            packets,
            packets * 500,
            start,
            duration,
        ));
    }
    // The flood: 1–3-packet flows from ever-new sources onto the victims.
    let starts = PoissonArrivals::new(mice_rate.max(f64::MIN_POSITIVE))
        .arrivals_until(duration_secs, &mut rng);
    for (index, start) in starts.into_iter().enumerate() {
        let packets = 1 + rng.next_below(3);
        let dst = victims.draw(&mut rng);
        let key = synthetic_key(FLOOD_INDEX_BASE + index as u64, dst, 80);
        let duration = if packets == 1 {
            0.0
        } else {
            rng.next_f64() * 0.3
        };
        flows.push(FlowRecord::new(
            key,
            packets,
            packets * 500,
            start,
            duration,
        ));
    }
    flows
}

fn port_scan_flows(
    scan_rate: f64,
    targets: usize,
    background_rate: f64,
    duration_secs: f64,
    seed: u64,
) -> Vec<FlowRecord> {
    let mut flows = heavy_tail_flows(1.5, background_rate, duration_secs, seed);
    let mut rng = Pcg64::seed_from_u64(seed ^ SCAN_SALT);
    // One scanner host paces probes evenly; each probe is a 1-packet flow to
    // the next address of a sequential sweep, so consecutive probes share a
    // /24 until the sweep crosses into the next prefix.
    let scanner = Ipv4Addr::new(198, 51, 100, 7);
    let sweep_base = u32::from(Ipv4Addr::new(100, 64, 0, 0));
    let probes = (scan_rate * duration_secs).floor() as usize;
    let pool = targets.max(1) as u32;
    for probe in 0..probes {
        let start = (probe as f64 + rng.next_f64()) / scan_rate.max(f64::MIN_POSITIVE);
        let key = FiveTuple {
            src_ip: scanner,
            dst_ip: Ipv4Addr::from(sweep_base + probe as u32 % pool),
            src_port: 40_000 + (probe % 20_000) as u16,
            dst_port: 1 + (probe % 1_024) as u16,
            protocol: Protocol::Tcp,
        };
        flows.push(FlowRecord::new(key, 1, 500, start.min(duration_secs), 0.0));
    }
    flows
}

fn rank_churn_flows(
    bin_secs: f64,
    bins: usize,
    heavy_per_bin: usize,
    heavy_packets: u64,
    mice_rate: f64,
    seed: u64,
) -> Vec<FlowRecord> {
    let mut rng = Pcg64::seed_from_u64(seed ^ CHURN_SALT);
    let heavy_per_bin = heavy_per_bin.max(1);
    let addresser = PrefixAddresser::new(64, 1.0);
    // A pool of stable heavy identities twice the per-bin head count; each
    // bin advances the window by half a head, so roughly half the top set
    // churns between consecutive bins.
    let pool = heavy_per_bin * 2;
    let identities: Vec<FiveTuple> = (0..pool)
        .map(|i| synthetic_key(CHURN_INDEX_BASE + i as u64, addresser.draw(&mut rng), 443))
        .collect();
    let step = (heavy_per_bin / 2).max(1);
    let mut flows = Vec::new();
    for bin in 0..bins {
        let bin_start = bin as f64 * bin_secs;
        for j in 0..heavy_per_bin {
            let identity = identities[(bin * step + j) % pool];
            // Distinct sizes per bin rank; small jitter keeps placement
            // non-degenerate without letting the flow cross the bin edge.
            let packets = heavy_packets.saturating_sub(j as u64 * 12).max(4);
            let start = bin_start + rng.next_f64() * 0.1 * bin_secs;
            let duration = 0.75 * bin_secs;
            flows.push(FlowRecord::new(
                identity,
                packets,
                packets * 500,
                start,
                duration,
            ));
        }
    }
    // Light background mice across the whole trace.
    let horizon = bin_secs * bins as f64;
    let starts =
        PoissonArrivals::new(mice_rate.max(f64::MIN_POSITIVE)).arrivals_until(horizon, &mut rng);
    for (index, start) in starts.into_iter().enumerate() {
        let packets = 1 + rng.next_below(3);
        let key = synthetic_key(MICE_INDEX_BASE + index as u64, addresser.draw(&mut rng), 80);
        flows.push(FlowRecord::new(key, packets, packets * 500, start, 0.0));
    }
    flows
}

fn mixed_flows(scale: f64, duration_secs: f64, seed: u64) -> Vec<FlowRecord> {
    // Each component reuses its dedicated builder with a derived seed, a
    // scaled rate and windows staggered across the trace, so the mix carries
    // a heavy-tail base, a mid-trace flash crowd, a continuous slow scan and
    // a late flood — all in one key space.
    let mut flows = heavy_tail_flows(1.4, 3.0 * scale, duration_secs, seed);
    flows.extend(flash_crowd_flows(
        0.0, // base handled above; only the spike
        25.0 * scale,
        duration_secs * 0.35,
        duration_secs * 0.15,
        2,
        duration_secs,
        seed ^ 0x1111,
    ));
    flows.extend(port_scan_flows(
        6.0 * scale,
        1_024,
        0.0,
        duration_secs,
        seed ^ 0x2222,
    ));
    let flood_window = duration_secs * 0.3;
    let mut flood = ddos_flood_flows(4, 180, 12.0 * scale, 2, flood_window, seed ^ 0x3333);
    // Shift the flood into the last third of the trace.
    let shift = duration_secs - flood_window;
    for flow in &mut flood {
        flow.start += shift;
    }
    flows.extend(flood);
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_net::DstPrefix;
    use std::collections::HashSet;

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let catalog = Workload::catalog();
        let names: HashSet<&str> = catalog.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), catalog.len());
        for workload in &catalog {
            assert_eq!(Workload::by_name(workload.name()), Some(*workload));
        }
        assert_eq!(Workload::by_name("no-such-scenario"), None);
    }

    #[test]
    fn every_scenario_is_deterministic_and_seed_sensitive() {
        for workload in Workload::catalog() {
            let a = workload.synthesize(7);
            let b = workload.synthesize(7);
            let c = workload.synthesize(8);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
            assert!(!a.is_empty(), "{}", workload.name());
            for w in a.windows(2) {
                assert!(w[0].timestamp <= w[1].timestamp, "{}", workload.name());
            }
        }
    }

    #[test]
    fn batch_synthesis_matches_record_synthesis() {
        for workload in Workload::catalog() {
            let batch = workload.synthesize_batch(3);
            assert_eq!(
                batch.to_records(),
                workload.synthesize(3),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn heavy_tail_alpha_controls_the_tail() {
        let wild = Workload::heavy_tail(1.1).generate_flows(5);
        let mild = Workload::heavy_tail(3.0).generate_flows(5);
        let max_wild = wild.iter().map(|f| f.packets).max().unwrap();
        let max_mild = mild.iter().map(|f| f.packets).max().unwrap();
        assert!(
            max_wild > 2 * max_mild,
            "α=1.1 max {max_wild} must dwarf α=3 max {max_mild}"
        );
        // The heavier tail concentrates more of the total volume in its
        // single largest flow.
        let share = |flows: &[crate::FlowRecord], max: u64| {
            max as f64 / flows.iter().map(|f| f.packets).sum::<u64>() as f64
        };
        assert!(share(&wild, max_wild) > 1.5 * share(&mild, max_mild));
    }

    #[test]
    fn flash_crowd_spikes_inside_its_window() {
        let workload = Workload::flash_crowd();
        let (spike_start, spike_secs) = match workload {
            Workload::FlashCrowd {
                spike_start,
                spike_secs,
                ..
            } => (spike_start, spike_secs),
            _ => unreachable!(),
        };
        let flows = workload.generate_flows(9);
        let window = |lo: f64, hi: f64| {
            flows
                .iter()
                .filter(|f| f.start >= lo && f.start < hi)
                .count() as f64
                / (hi - lo)
        };
        let in_spike = window(spike_start, spike_start + spike_secs);
        let before = window(0.0, spike_start);
        assert!(
            in_spike > 4.0 * before,
            "arrival rate in the window ({in_spike:.1}/s) must dwarf the baseline ({before:.1}/s)"
        );
    }

    #[test]
    fn ddos_flood_drowns_elephants_in_mice() {
        let flows = Workload::ddos_flood().generate_flows(11);
        let mice = flows.iter().filter(|f| f.packets <= 3).count();
        let elephants = flows.iter().filter(|f| f.packets >= 200).count();
        assert!(elephants >= 4, "{elephants} elephants");
        assert!(
            mice > 50 * elephants,
            "{mice} mice must drown {elephants} elephants"
        );
        // The flood concentrates on few /24s: mice prefixes ≪ mice flows.
        let mice_prefixes: HashSet<DstPrefix> = flows
            .iter()
            .filter(|f| f.packets <= 3)
            .map(|f| DstPrefix::of(f.key.dst_ip, 24))
            .collect();
        assert!(mice_prefixes.len() <= 8, "{} prefixes", mice_prefixes.len());
    }

    #[test]
    fn port_scan_sweeps_many_keys_from_one_source() {
        let flows = Workload::port_scan().generate_flows(13);
        let scanner = Ipv4Addr::new(198, 51, 100, 7);
        let probes: Vec<_> = flows.iter().filter(|f| f.key.src_ip == scanner).collect();
        assert!(probes.len() > 1_000, "{} probes", probes.len());
        assert!(probes.iter().all(|f| f.packets == 1));
        let keys: HashSet<FiveTuple> = probes.iter().map(|f| f.key).collect();
        assert_eq!(keys.len(), probes.len(), "every probe is its own 5-tuple");
        let prefixes: HashSet<DstPrefix> = probes
            .iter()
            .map(|f| DstPrefix::of(f.key.dst_ip, 24))
            .collect();
        assert!(prefixes.len() >= 8, "{} swept prefixes", prefixes.len());
    }

    #[test]
    fn rank_churn_rotates_top_membership_between_bins() {
        let workload = Workload::rank_churn();
        let flows = workload.generate_flows(17);
        let top_keys = |bin: usize| -> HashSet<FiveTuple> {
            let lo = bin as f64 * 60.0;
            let mut heavy: Vec<_> = flows
                .iter()
                .filter(|f| f.start >= lo && f.start < lo + 60.0 && f.packets >= 100)
                .collect();
            heavy.sort_by_key(|f| std::cmp::Reverse(f.packets));
            heavy.iter().take(8).map(|f| f.key).collect()
        };
        let a = top_keys(0);
        let b = top_keys(1);
        assert_eq!(a.len(), 8);
        let shared = a.intersection(&b).count();
        assert!(shared < 8, "membership must churn (shared {shared})");
        assert!(shared > 0, "rotation keeps some identities");
    }

    #[test]
    fn mixed_contains_every_component() {
        let flows = Workload::mixed().generate_flows(19);
        let scanner = Ipv4Addr::new(198, 51, 100, 7);
        assert!(flows.iter().any(|f| f.key.src_ip == scanner), "scan");
        assert!(flows.iter().any(|f| f.packets >= 150), "elephants");
        assert!(
            flows.iter().filter(|f| f.packets <= 3).count() > 200,
            "flood mice"
        );
    }

    #[test]
    fn scaled_shrinks_the_population_without_changing_shape() {
        for workload in Workload::catalog() {
            let full: u64 = workload.generate_flows(23).iter().map(|f| f.packets).sum();
            let quarter: u64 = workload
                .scaled(0.25)
                .generate_flows(23)
                .iter()
                .map(|f| f.packets)
                .sum();
            assert!(quarter < full, "{}: {quarter} !< {full}", workload.name());
            assert_eq!(workload.scaled(1.0), workload, "{}", workload.name());
        }
    }
}
