//! Protocol header encoding and parsing: Ethernet II, IPv4, TCP and UDP.
//!
//! The synthetic traces are pure in-memory [`PacketRecord`]s; this module
//! materialises them as real frames (and parses frames back into packet
//! columns) so that traces can be exported to pcap files readable by
//! standard tools, and so that captures produced elsewhere can be fed into
//! the ranking pipeline.
//! Only the fields relevant to flow classification are modelled — options,
//! fragmentation and IPv6 are out of scope for the reproduction.

use std::net::Ipv4Addr;

use flowrank_flowtable::CompactKey;

use crate::error::{NetError, NetResult};
use crate::flowkey::{FiveTuple, Protocol};
use crate::packet::PacketRecord;

/// Length of an Ethernet II header in bytes.
pub(crate) const ETHERNET_HEADER_LEN: usize = 14;
/// Length of a minimal IPv4 header in bytes (no options).
pub(crate) const IPV4_HEADER_LEN: usize = 20;
/// Length of a minimal TCP header in bytes (no options).
pub(crate) const TCP_HEADER_LEN: usize = 20;
/// Length of a UDP header in bytes.
pub(crate) const UDP_HEADER_LEN: usize = 8;
/// EtherType for IPv4.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;

/// Computes the Internet checksum (RFC 1071) over a byte slice.
pub(crate) fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Encodes a [`PacketRecord`] as an Ethernet II / IPv4 / TCP-or-UDP frame.
///
/// The payload is zero-filled so that the on-wire IPv4 total length matches
/// `record.length` (clamped to at least the header sizes). Source and
/// destination MAC addresses are synthetic constants — the monitor model of
/// the paper never inspects layer 2.
pub(crate) fn encode_frame(record: &PacketRecord) -> NetResult<Vec<u8>> {
    let transport_len = match record.protocol {
        Protocol::Tcp => TCP_HEADER_LEN,
        Protocol::Udp => UDP_HEADER_LEN,
        _ => 0,
    };
    let ip_total_len = (record.length as usize).max(IPV4_HEADER_LEN + transport_len);
    if ip_total_len > u16::MAX as usize {
        return Err(NetError::InvalidField {
            field: "length",
            reason: "IPv4 total length exceeds 65535",
        });
    }
    let mut frame = Vec::with_capacity(ETHERNET_HEADER_LEN + ip_total_len);

    // Ethernet II header: synthetic locally administered MACs.
    frame.extend_from_slice(&[0x02, 0x00, 0x00, 0x00, 0x00, 0x01]); // dst MAC
    frame.extend_from_slice(&[0x02, 0x00, 0x00, 0x00, 0x00, 0x02]); // src MAC
    frame.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());

    // IPv4 header.
    let mut ip = [0u8; IPV4_HEADER_LEN];
    ip[0] = 0x45; // version 4, IHL 5
    ip[1] = 0x00; // DSCP/ECN
    ip[2..4].copy_from_slice(&(ip_total_len as u16).to_be_bytes());
    ip[4..6].copy_from_slice(&0u16.to_be_bytes()); // identification
    ip[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // don't fragment
    ip[8] = 64; // TTL
    ip[9] = record.protocol.number();
    // checksum at [10..12] filled below
    ip[12..16].copy_from_slice(&record.src_ip.octets());
    ip[16..20].copy_from_slice(&record.dst_ip.octets());
    let csum = internet_checksum(&ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
    frame.extend_from_slice(&ip);

    // Transport header.
    match record.protocol {
        Protocol::Tcp => {
            let mut tcp = [0u8; TCP_HEADER_LEN];
            tcp[0..2].copy_from_slice(&record.src_port.to_be_bytes());
            tcp[2..4].copy_from_slice(&record.dst_port.to_be_bytes());
            tcp[4..8].copy_from_slice(&record.tcp_seq.unwrap_or(0).to_be_bytes());
            tcp[12] = 0x50; // data offset 5
            tcp[13] = 0x10; // ACK flag
            tcp[14..16].copy_from_slice(&0xFFFFu16.to_be_bytes()); // window
            frame.extend_from_slice(&tcp);
        }
        Protocol::Udp => {
            let udp_len = (ip_total_len - IPV4_HEADER_LEN) as u16;
            let mut udp = [0u8; UDP_HEADER_LEN];
            udp[0..2].copy_from_slice(&record.src_port.to_be_bytes());
            udp[2..4].copy_from_slice(&record.dst_port.to_be_bytes());
            udp[4..6].copy_from_slice(&udp_len.to_be_bytes());
            frame.extend_from_slice(&udp);
        }
        _ => {}
    }

    // Zero payload padding up to the declared IPv4 total length.
    let current_ip_len = frame.len() - ETHERNET_HEADER_LEN;
    frame.resize(frame.len() + (ip_total_len - current_ip_len), 0);
    Ok(frame)
}

/// The columns of one parsed frame, as both frame parsers return them: the
/// packed 5-tuple plus the two non-key columns, exactly what
/// [`crate::batch::PacketBatch::push_columns`] consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameColumns {
    pub packed_key: u128,
    pub length: u16,
    pub tcp_seq: Option<u32>,
}

/// Parses the header fields of an Ethernet II / IPv4 frame in place.
///
/// This is the single home of the frame-parsing rules: the capture decoder
/// ([`crate::pcap::PcapBatchCursor`]) takes every frame that
/// [`parse_frame_fields_fast`] bows out of here, and checks in debug builds
/// that the two agree on every frame the fast parser accepts.
#[inline]
pub(crate) fn parse_frame_fields(frame: &[u8]) -> NetResult<FrameColumns> {
    if frame.len() < ETHERNET_HEADER_LEN + IPV4_HEADER_LEN {
        return Err(NetError::MalformedPacket {
            reason: "frame shorter than Ethernet + IPv4 headers",
        });
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != ETHERTYPE_IPV4 {
        return Err(NetError::MalformedPacket {
            reason: "not an IPv4 frame",
        });
    }
    let ip = &frame[ETHERNET_HEADER_LEN..];
    if ip[0] >> 4 != 4 {
        return Err(NetError::MalformedPacket {
            reason: "IP version is not 4",
        });
    }
    let ihl = ((ip[0] & 0x0F) as usize) * 4;
    if ihl < IPV4_HEADER_LEN || ip.len() < ihl {
        return Err(NetError::MalformedPacket {
            reason: "invalid IPv4 header length",
        });
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]);
    let protocol = Protocol::from_number(ip[9]);
    let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);

    let transport = &ip[ihl..];
    let (src_port, dst_port, tcp_seq) = match protocol {
        Protocol::Tcp => {
            if transport.len() < TCP_HEADER_LEN {
                return Err(NetError::MalformedPacket {
                    reason: "truncated TCP header",
                });
            }
            (
                u16::from_be_bytes([transport[0], transport[1]]),
                u16::from_be_bytes([transport[2], transport[3]]),
                Some(u32::from_be_bytes([
                    transport[4],
                    transport[5],
                    transport[6],
                    transport[7],
                ])),
            )
        }
        Protocol::Udp => {
            if transport.len() < UDP_HEADER_LEN {
                return Err(NetError::MalformedPacket {
                    reason: "truncated UDP header",
                });
            }
            (
                u16::from_be_bytes([transport[0], transport[1]]),
                u16::from_be_bytes([transport[2], transport[3]]),
                None,
            )
        }
        _ => (0, 0, None),
    };

    let five_tuple = FiveTuple {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        protocol,
    };
    Ok(FrameColumns {
        packed_key: five_tuple.pack(),
        length: total_len,
        tcp_seq,
    })
}

/// Common-case specialisation of [`parse_frame_fields`]: an Ethernet II /
/// IPv4 frame with no IP options (IHL = 5) carrying TCP or UDP, long enough
/// that all parsed fields sit in the first 54 bytes. One bounds check covers
/// every field read and the 5-tuple is packed straight from the wire bytes,
/// so the batch decoder's hot loop stays branch-lean; anything else (IP
/// options, ICMP, minimal UDP frames) returns `None` and falls back to the
/// general parser. Must agree with [`parse_frame_fields`] wherever it
/// returns `Some` — pinned by a unit test over assorted frames, and checked
/// on every decoded frame in debug builds.
#[inline(always)]
pub(crate) fn parse_frame_fields_fast(frame: &[u8]) -> Option<FrameColumns> {
    let head: &[u8; 54] = frame.get(..54)?.try_into().ok()?;
    // EtherType IPv4, version 4, IHL 5.
    if head[12] != 0x08 || head[13] != 0x00 || head[14] != 0x45 {
        return None;
    }
    let protocol = head[23];
    let tcp_seq = match protocol {
        6 => Some(u32::from_be_bytes([head[38], head[39], head[40], head[41]])),
        17 => None,
        _ => return None,
    };
    // Same layout as `FiveTuple::pack`:
    // src(32) · dst(32) · sport(16) · dport(16) · proto(8).
    let src = u32::from_be_bytes([head[26], head[27], head[28], head[29]]);
    let dst = u32::from_be_bytes([head[30], head[31], head[32], head[33]]);
    let src_port = u16::from_be_bytes([head[34], head[35]]);
    let dst_port = u16::from_be_bytes([head[36], head[37]]);
    Some(FrameColumns {
        packed_key: (u128::from(src) << 72)
            | (u128::from(dst) << 40)
            | (u128::from(src_port) << 24)
            | (u128::from(dst_port) << 8)
            | u128::from(protocol),
        length: u16::from_be_bytes([head[16], head[17]]),
        tcp_seq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowkey::FlowKey;
    use crate::packet::Timestamp;

    /// The columns a frame encoded from `record` must parse back into.
    fn columns_of(record: &PacketRecord) -> FrameColumns {
        FrameColumns {
            packed_key: FiveTuple::from_packet(record).pack(),
            length: record.length,
            tcp_seq: record.tcp_seq,
        }
    }

    /// The reason `parse_frame_fields` gives for refusing `frame`.
    fn rejection(frame: &[u8]) -> &'static str {
        match parse_frame_fields(frame) {
            Err(NetError::MalformedPacket { reason }) => reason,
            other => panic!("expected a malformed frame, got {other:?}"),
        }
    }

    fn tcp_record() -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_secs_f64(1.25),
            Ipv4Addr::new(10, 0, 0, 1),
            40123,
            Ipv4Addr::new(192, 168, 2, 3),
            443,
            500,
            0xDEADBEEF,
        )
    }

    #[test]
    fn checksum_known_vector() {
        // Classic RFC 1071 example header.
        let header: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(internet_checksum(&header), 0xb861);
        // Verification: checksum over a header containing its checksum is 0.
        let mut with = header;
        with[10..12].copy_from_slice(&0xb861u16.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn checksum_odd_length() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn tcp_round_trip() {
        let record = tcp_record();
        let frame = encode_frame(&record).unwrap();
        assert_eq!(frame.len(), ETHERNET_HEADER_LEN + 500);
        assert_eq!(parse_frame_fields(&frame).unwrap(), columns_of(&record));
    }

    #[test]
    fn udp_round_trip() {
        let record = PacketRecord::udp(
            Timestamp::from_secs_f64(0.5),
            Ipv4Addr::new(172, 16, 5, 9),
            5353,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
            120,
        );
        let frame = encode_frame(&record).unwrap();
        assert_eq!(parse_frame_fields(&frame).unwrap(), columns_of(&record));
    }

    #[test]
    fn icmp_like_protocol_round_trip() {
        let mut record = tcp_record();
        record.protocol = Protocol::Icmp;
        record.tcp_seq = None;
        record.src_port = 0;
        record.dst_port = 0;
        record.length = 84;
        let frame = encode_frame(&record).unwrap();
        assert_eq!(parse_frame_fields(&frame).unwrap(), columns_of(&record));
    }

    #[test]
    fn length_smaller_than_headers_is_clamped() {
        let mut record = tcp_record();
        record.length = 10; // smaller than IPv4+TCP headers
        let frame = encode_frame(&record).unwrap();
        let decoded = parse_frame_fields(&frame).unwrap();
        assert_eq!(decoded.length as usize, IPV4_HEADER_LEN + TCP_HEADER_LEN);
    }

    #[test]
    fn ipv4_header_checksum_validates() {
        let frame = encode_frame(&tcp_record()).unwrap();
        let ip = &frame[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + IPV4_HEADER_LEN];
        assert_eq!(internet_checksum(ip), 0, "IPv4 header checksum must verify");
    }

    #[test]
    fn decode_rejects_short_and_non_ip_frames() {
        assert_eq!(
            rejection(&[0u8; 10]),
            "frame shorter than Ethernet + IPv4 headers"
        );
        let mut frame = encode_frame(&tcp_record()).unwrap();
        frame[12] = 0x86; // EtherType → IPv6
        frame[13] = 0xDD;
        assert_eq!(rejection(&frame), "not an IPv4 frame");
    }

    #[test]
    fn fast_parse_agrees_with_the_general_parser() {
        // Wherever the fast path answers, it must answer exactly like
        // parse_frame_fields; wherever it bows out, the general parser
        // decides alone. Exercised over TCP/UDP/ICMP records of assorted
        // lengths plus corrupted variants.
        let mut records = Vec::new();
        for length in [10u16, 40, 42, 54, 60, 500, 1500] {
            let mut tcp = tcp_record();
            tcp.length = length;
            records.push(tcp);
            let udp = PacketRecord::udp(
                Timestamp::from_secs_f64(0.5),
                Ipv4Addr::new(172, 16, 5, 9),
                5353,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
                length,
            );
            records.push(udp);
            let mut icmp = tcp_record();
            icmp.protocol = Protocol::Icmp;
            icmp.tcp_seq = None;
            icmp.src_port = 0;
            icmp.dst_port = 0;
            icmp.length = length;
            records.push(icmp);
        }
        for record in &records {
            let frame = encode_frame(record).unwrap();
            let general = parse_frame_fields(&frame).unwrap();
            if let Some(fast) = parse_frame_fields_fast(&frame) {
                assert_eq!(fast, general, "{record:?}");
            }
            // Corruptions must never make the fast path answer differently
            // from the general one.
            for (byte, value) in [(12usize, 0x86u8), (14, 0x46), (14, 0x65), (23, 89)] {
                let mut bad = frame.clone();
                if bad.len() > byte {
                    bad[byte] = value;
                    match (parse_frame_fields_fast(&bad), parse_frame_fields(&bad)) {
                        (Some(fast), Ok(general)) => assert_eq!(fast, general),
                        (Some(_), Err(_)) => panic!("fast path accepted a bad frame"),
                        (None, _) => {}
                    }
                }
            }
        }
        // Common case actually takes the fast path.
        let frame = encode_frame(&tcp_record()).unwrap();
        assert!(parse_frame_fields_fast(&frame).is_some());
    }

    #[test]
    fn decode_rejects_bad_version_and_truncated_transport() {
        let good = encode_frame(&tcp_record()).unwrap();
        // Corrupt the IP version nibble.
        let mut bad_version = good.clone();
        bad_version[ETHERNET_HEADER_LEN] = 0x65;
        assert_eq!(rejection(&bad_version), "IP version is not 4");
        // Truncate in the middle of the TCP header.
        let truncated = &good[..ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + 4];
        assert_eq!(rejection(truncated), "truncated TCP header");
    }
}
