//! Property-based integration tests over the cross-crate invariants.
//!
//! The properties are exercised with a small self-contained randomised
//! harness (deterministic Pcg64 case generation — no external test-framework
//! dependency): every case derives from a fixed master seed, so a failure
//! message's case index reproduces the exact inputs.

use flowrank_core::metrics::{compare_rankings, SizedFlow};
use flowrank_core::{misranking_probability_exact, misranking_probability_gaussian};
use flowrank_net::pcap::{pcap_bytes_to_records, records_to_pcap_bytes};
use flowrank_net::{FiveTuple, FlowKey, FlowMap, FlowTable, PacketRecord, Protocol, Timestamp};
use flowrank_sampling::{sample_and_classify, PacketSampler, RandomSampler};
use flowrank_stats::rng::{derive_seeds, Pcg64, Rng, SeedableRng};

const CASES: usize = 64;
const MASTER_SEED: u64 = 0xCA5E_5EED;

/// Draws one arbitrary packet.
fn arbitrary_packet(rng: &mut Pcg64) -> PacketRecord {
    let protocol = match rng.next_below(3) {
        0 => Protocol::Tcp,
        1 => Protocol::Udp,
        _ => Protocol::Icmp,
    };
    // ICMP has no transport ports: the frame encoder cannot carry them, so
    // the generator never produces them either.
    let has_ports = protocol != Protocol::Icmp;
    PacketRecord {
        timestamp: Timestamp::from_micros(rng.next_below(10_000_000)),
        src_ip: (rng.next_u64() as u32).into(),
        dst_ip: (rng.next_u64() as u32).into(),
        src_port: if has_ports { rng.next_u64() as u16 } else { 0 },
        dst_port: if has_ports { rng.next_u64() as u16 } else { 0 },
        protocol,
        length: 64 + rng.next_below(1436) as u16,
        tcp_seq: if protocol == Protocol::Tcp {
            Some(rng.next_u64() as u32)
        } else {
            None
        },
    }
}

fn arbitrary_packets(rng: &mut Pcg64, min: usize, max: usize) -> Vec<PacketRecord> {
    let len = min + rng.index(max - min + 1);
    (0..len).map(|_| arbitrary_packet(rng)).collect()
}

/// Runs `property` over [`CASES`] deterministic random cases.
fn for_all_cases(name: &str, property: impl Fn(&mut Pcg64)) {
    for (case, seed) in derive_seeds(MASTER_SEED, CASES).into_iter().enumerate() {
        let mut rng = Pcg64::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(panic) = result {
            panic!("property `{name}` failed on case {case} (seed {seed:#x}): {panic:?}");
        }
    }
}

#[test]
fn pcap_round_trip_preserves_flow_identity() {
    for_all_cases("pcap_round_trip", |rng| {
        let packets = arbitrary_packets(rng, 0, 39);
        let bytes = records_to_pcap_bytes(&packets).unwrap();
        let decoded = pcap_bytes_to_records(&bytes).unwrap();
        assert_eq!(decoded.len(), packets.len());
        for (a, b) in packets.iter().zip(decoded.iter()) {
            assert_eq!(FiveTuple::from_packet(a), FiveTuple::from_packet(b));
            assert_eq!(a.timestamp.as_micros(), b.timestamp.as_micros());
        }
    });
}

#[test]
fn sampled_flow_sizes_never_exceed_originals() {
    for_all_cases("sampled_subset", |rng| {
        let packets = arbitrary_packets(rng, 1, 199);
        let rate = rng.next_f64();
        let seed = rng.next_u64();
        let mut original: FlowTable<FiveTuple> = FlowTable::new();
        for p in &packets {
            original.observe(p);
        }
        let mut sampler = RandomSampler::new(rate);
        let mut sample_rng = Pcg64::seed_from_u64(seed);
        let sampled: FlowTable<FiveTuple> =
            sample_and_classify(&packets, &mut sampler, &mut sample_rng);
        assert!(sampled.flow_count() <= original.flow_count());
        for (key, stats) in sampled.iter() {
            assert!(stats.packets <= original.get(&key).unwrap().packets);
        }
    });
}

#[test]
fn full_sampling_never_produces_ranking_errors() {
    for_all_cases("full_sampling_perfect", |rng| {
        let packets = arbitrary_packets(rng, 1, 149);
        let top_t = 1 + rng.index(11);
        let mut table: FlowTable<FiveTuple> = FlowTable::new();
        for p in &packets {
            table.observe(p);
        }
        let original: Vec<SizedFlow<FiveTuple>> = table
            .iter()
            .map(|(k, s)| SizedFlow {
                key: k,
                packets: s.packets,
            })
            .collect();
        let sizes: FlowMap<FiveTuple, u64> = table.iter().map(|(k, s)| (k, s.packets)).collect();
        let outcome = compare_rankings(&original, &sizes, top_t);
        assert_eq!(outcome.ranking_swaps, 0);
        assert_eq!(outcome.detection_swaps, 0);
        assert_eq!(outcome.missed_top_flows, 0);
    });
}

#[test]
fn compact_key_pack_round_trips_for_arbitrary_keys() {
    use flowrank_net::{CompactKey, DstPrefix};
    for_all_cases("compact_key_round_trip", |rng| {
        for _ in 0..50 {
            let packet = arbitrary_packet(rng);
            let five = FiveTuple::from_packet(&packet);
            assert_eq!(FiveTuple::unpack(five.pack()), five);
            let prefix = DstPrefix::from_packet(&packet);
            assert_eq!(DstPrefix::unpack(prefix.pack()), prefix);
            // An arbitrary (not just /24) prefix length round-trips too.
            let len = rng.next_below(33) as u8;
            let any_len = DstPrefix::of(packet.dst_ip, len);
            assert_eq!(DstPrefix::unpack(any_len.pack()), any_len);
            // Packing is injective on inequal keys (spot check against the
            // previous draw).
            let other = FiveTuple::from_packet(&arbitrary_packet(rng));
            assert_eq!(five == other, five.pack() == other.pack());
        }
    });
}

#[test]
fn flow_map_agrees_with_std_hashmap_reference() {
    use std::collections::HashMap;
    for_all_cases("flow_map_reference", |rng| {
        let mut map: FlowMap<FiveTuple, u64> = FlowMap::new();
        let mut reference: HashMap<FiveTuple, u64> = HashMap::new();
        // A small key universe forces collisions, updates and re-inserts.
        let universe: Vec<FiveTuple> = (0..40)
            .map(|_| FiveTuple::from_packet(&arbitrary_packet(rng)))
            .collect();
        for _ in 0..400 {
            let key = universe[rng.index(universe.len())];
            match rng.next_below(4) {
                0 => {
                    let value = rng.next_u64();
                    assert_eq!(map.insert(key, value), reference.insert(key, value));
                }
                1 => {
                    map.upsert(key, || 1, |v| *v += 1);
                    reference.entry(key).and_modify(|v| *v += 1).or_insert(1);
                }
                2 => assert_eq!(map.remove(&key), reference.remove(&key)),
                _ => assert_eq!(map.get(&key), reference.get(&key)),
            }
            assert_eq!(map.len(), reference.len());
        }
        // Drain comparison: element-for-element equality (order aside).
        let mut drained: Vec<(FiveTuple, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
        let mut expected: Vec<(FiveTuple, u64)> = reference.into_iter().collect();
        drained.sort();
        expected.sort();
        assert_eq!(drained, expected);
    });
}

#[test]
fn flow_map_removal_heavy_churn_matches_a_slab_model() {
    use std::collections::HashMap;
    for_all_cases("flow_map_removal_churn", |rng| {
        let mut map: FlowMap<FiveTuple, u64> = FlowMap::new();
        let mut reference: HashMap<FiveTuple, u64> = HashMap::new();
        // The slab model: ids in order of first sight, and a removal moves
        // the last entry into the removed entry's position.
        let mut slab: Vec<FiveTuple> = Vec::new();
        let universe: Vec<FiveTuple> = (0..48)
            .map(|_| FiveTuple::from_packet(&arbitrary_packet(rng)))
            .collect();
        let mut absent: Vec<FiveTuple> = Vec::new();
        while absent.len() < 20 {
            let key = FiveTuple::from_packet(&arbitrary_packet(rng));
            if !universe.contains(&key) && !absent.contains(&key) {
                absent.push(key);
            }
        }
        for op in 0..300 {
            match rng.next_below(8) {
                0..=2 => {
                    let key = universe[rng.index(universe.len())];
                    let id = map.upsert_id(key, || 1, |v| *v += 1);
                    *reference.entry(key).or_insert(0) += 1;
                    if !slab.contains(&key) {
                        slab.push(key);
                    }
                    assert_eq!(slab[id], key, "op {op}");
                }
                3 => {
                    let key = universe[rng.index(universe.len())];
                    let value = rng.next_u64();
                    assert_eq!(map.insert(key, value), reference.insert(key, value));
                    if !slab.contains(&key) {
                        slab.push(key);
                    }
                }
                _ => {
                    // Half the ops remove, mostly a live key.
                    let key = if !slab.is_empty() && rng.next_below(4) != 0 {
                        slab[rng.index(slab.len())]
                    } else {
                        universe[rng.index(universe.len())]
                    };
                    assert_eq!(map.remove(&key), reference.remove(&key), "op {op}");
                    if let Some(hole) = slab.iter().position(|&k| k == key) {
                        slab.swap_remove(hole);
                    }
                }
            }
            assert_eq!(map.len(), reference.len(), "op {op}");
            for (key, value) in &reference {
                assert_eq!(map.get(key), Some(value), "op {op}");
            }
            for key in &absent {
                assert_eq!(map.get(key), None, "op {op}");
            }
            assert!(
                map.iter().map(|(k, _)| k).eq(slab.iter().copied()),
                "op {op}"
            );
        }
    });
}

#[test]
fn flow_map_drain_order_is_deterministic_and_clear_reuses() {
    for_all_cases("flow_map_drain_order", |rng| {
        let keys: Vec<FiveTuple> = (0..60)
            .map(|_| FiveTuple::from_packet(&arbitrary_packet(rng)))
            .collect();
        let run = |keys: &[FiveTuple]| {
            let mut map: FlowMap<FiveTuple, u64> = FlowMap::new();
            for key in keys {
                map.upsert(*key, || 1, |v| *v += 1);
            }
            map.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>()
        };
        // Same operation sequence → same drain order, twice over.
        assert_eq!(run(&keys), run(&keys));
        // And clear() preserves capacity while resetting contents.
        let mut map: FlowMap<FiveTuple, u64> = FlowMap::with_capacity(keys.len());
        for key in &keys {
            map.insert(*key, 0);
        }
        let capacity = map.capacity();
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), capacity);
    });
}

#[test]
fn misranking_probabilities_are_valid_and_symmetric() {
    for_all_cases("misranking_valid", |rng| {
        let s1 = 1 + rng.next_below(799);
        let s2 = 1 + rng.next_below(799);
        let p = 0.001 + rng.next_f64() * 0.998;
        let exact = misranking_probability_exact(s1, s2, p);
        let gauss = misranking_probability_gaussian(s1 as f64, s2 as f64, p);
        assert!((0.0..=1.0).contains(&exact));
        assert!((0.0..=1.0).contains(&gauss));
        assert!((misranking_probability_exact(s2, s1, p) - exact).abs() < 1e-12);
        // The Gaussian form is within its documented error band whenever at
        // least one flow is comfortably sampled.
        if (s1 as f64 * p).max(s2 as f64 * p) > 5.0 && s1 != s2 {
            assert!((exact - gauss).abs() < 0.25);
        }
    });
}

#[test]
fn sampler_empirical_rate_is_clamped() {
    for_all_cases("rate_clamped", |rng| {
        let rate = -1.0 + 3.0 * rng.next_f64();
        let mut sampler = RandomSampler::new(rate);
        let mut keep_rng = Pcg64::seed_from_u64(1);
        let packet = PacketRecord::udp(
            Timestamp::ZERO,
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            1,
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            2,
            100,
        );
        let keep = sampler.keep(&packet, &mut keep_rng);
        if rate <= 0.0 {
            assert!(!keep);
        }
        if rate >= 1.0 {
            assert!(keep);
        }
        assert!((0.0..=1.0).contains(&sampler.nominal_rate()));
    });
}
