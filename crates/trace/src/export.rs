//! Exporting synthetic traces to pcap captures.
//!
//! A convenience bridge between the trace generators and the from-scratch
//! pcap writer in `flowrank-net`: a synthetic flow population can be written
//! out as a standard capture file for inspection with external tooling, and
//! read back into the same ranking pipeline.

use std::io::Write;

use flowrank_net::pcap::PcapWriter;
use flowrank_net::NetResult;

use crate::flow_record::FlowRecord;
use crate::stream::SynthesisStream;
use crate::synthesis::SynthesisConfig;

/// Expands `flows` into packets and writes them to `out` as a pcap capture,
/// one synthesis window at a time (the trace is never held whole).
///
/// Returns the number of packets written.
pub fn export_flows_to_pcap<W: Write>(
    flows: &[FlowRecord],
    config: &SynthesisConfig,
    seed: u64,
    out: W,
) -> NetResult<u64> {
    let mut stream = SynthesisStream::new(flows.to_vec(), config, seed);
    let mut writer = PcapWriter::new(out)?;
    while let Some(window) = stream.next_window() {
        for packet in window.iter_records() {
            writer.write_record(&packet)?;
        }
    }
    let written = writer.packets_written();
    writer.finish()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sprint::SprintModel;
    use flowrank_net::pcap::pcap_bytes_to_records;
    use flowrank_net::{FiveTuple, FlowTable};

    #[test]
    fn export_then_reimport_preserves_flow_sizes() {
        let flows = SprintModel::small(5.0, 50.0).generate_flows(3);
        let mut buffer = Vec::new();
        let written =
            export_flows_to_pcap(&flows, &SynthesisConfig::default(), 3, &mut buffer).unwrap();
        let expected: u64 = flows.iter().map(|f| f.packets).sum();
        assert_eq!(written, expected);

        let records = pcap_bytes_to_records(&buffer).unwrap();
        assert_eq!(records.len() as u64, expected);
        let mut table: FlowTable<FiveTuple> = FlowTable::new();
        for r in &records {
            table.observe(r);
        }
        assert_eq!(table.flow_count(), flows.len());
        for f in &flows {
            assert_eq!(table.get(&f.key).unwrap().packets, f.packets);
        }
    }

    #[test]
    fn exported_capture_decodes_straight_into_a_batch() {
        // The batched replay loop: flows → pcap → zero-copy decode into a
        // reusable PacketBatch → batch classification. The decoded packets
        // are the synthesised ones, timestamps cut to the capture's
        // microseconds.
        use crate::synthesis::synthesize_packets;
        use flowrank_net::pcap::pcap_bytes_to_batch;
        use flowrank_net::{PacketBatch, Timestamp};

        let flows = SprintModel::small(5.0, 50.0).generate_flows(9);
        let config = SynthesisConfig::default();
        let mut buffer = Vec::new();
        export_flows_to_pcap(&flows, &config, 9, &mut buffer).unwrap();

        let mut batch = PacketBatch::new();
        let decoded = pcap_bytes_to_batch(&buffer, &mut batch).unwrap();
        assert_eq!(decoded, batch.len() as u64);
        let expected: Vec<_> = synthesize_packets(&flows, &config, 9)
            .into_iter()
            .map(|mut p| {
                p.timestamp = Timestamp::from_micros(p.timestamp.as_micros());
                p
            })
            .collect();
        assert_eq!(batch.to_records(), expected);

        let keys: Vec<FiveTuple> = (0..batch.len()).map(|i| batch.five_tuple(i)).collect();
        let mut table: FlowTable<FiveTuple> = FlowTable::new();
        table.observe_batch(&keys, &batch, 0..batch.len());
        assert_eq!(table.flow_count(), flows.len());
        for f in &flows {
            assert_eq!(table.get(&f.key).unwrap().packets, f.packets);
        }
    }

    #[test]
    fn empty_trace_produces_valid_empty_capture() {
        let mut buffer = Vec::new();
        let written =
            export_flows_to_pcap(&[], &SynthesisConfig::default(), 0, &mut buffer).unwrap();
        assert_eq!(written, 0);
        assert_eq!(pcap_bytes_to_records(&buffer).unwrap().len(), 0);
    }
}
