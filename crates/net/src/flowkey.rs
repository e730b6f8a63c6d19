//! Flow identities.
//!
//! The paper evaluates two flow definitions (Sec. 6): the usual transport
//! 5-tuple and the /24 destination-address prefix, which aggregates many
//! 5-tuple flows into larger prefix flows (mean 4.8 KB vs 16.6 KB on the
//! Sprint link). Both are provided here behind the [`FlowKey`] trait, along
//! with [`FlowDefinition`] for selecting the definition at run time — the
//! trace-driven simulator classifies the same packet stream under both.

use std::fmt;
use std::hash::Hash;
use std::net::Ipv4Addr;

use flowrank_flowtable::CompactKey;

use crate::packet::PacketRecord;

/// Transport-layer protocol carried in the IPv4 protocol field.
///
/// Equality, ordering and hashing all compare the IANA protocol number, so
/// a hand-built `Protocol::Other(6)` is the same protocol as
/// [`Protocol::Tcp`] — which keeps the [`CompactKey`] packing (that stores
/// only the number) a faithful bijection of key equality.
#[derive(Debug, Clone, Copy)]
pub enum Protocol {
    /// Transmission Control Protocol (6).
    Tcp,
    /// User Datagram Protocol (17).
    Udp,
    /// Internet Control Message Protocol (1).
    Icmp,
    /// Any other protocol, identified by its IANA number.
    Other(u8),
}

impl PartialEq for Protocol {
    fn eq(&self, other: &Self) -> bool {
        self.number() == other.number()
    }
}

impl Eq for Protocol {}

impl Hash for Protocol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.number().hash(state);
    }
}

impl PartialOrd for Protocol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Protocol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.number().cmp(&other.number())
    }
}

impl Protocol {
    /// IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(n) => n,
        }
    }

    /// Builds a [`Protocol`] from its IANA number.
    pub(crate) fn from_number(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

/// A flow identity that can be derived from a packet.
///
/// Implementations are small `Copy` values and — through the
/// [`CompactKey`] supertrait — pack losslessly into a single machine
/// integer, so the flow tables hash and compare keys as plain integers
/// instead of running a structural hasher over the fields. `Hash` is still
/// required for interoperability with standard collections off the hot
/// path.
pub trait FlowKey: Copy + Eq + Hash + fmt::Debug + CompactKey {
    /// Extracts the flow key of a packet.
    fn from_packet(packet: &PacketRecord) -> Self;

    /// Short human-readable name of the flow definition (for reports).
    fn definition_name() -> &'static str;
}

/// The classical 5-tuple flow definition: protocol, source and destination
/// address, source and destination port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FlowKey for FiveTuple {
    fn from_packet(packet: &PacketRecord) -> Self {
        FiveTuple {
            src_ip: packet.src_ip,
            dst_ip: packet.dst_ip,
            src_port: packet.src_port,
            dst_port: packet.dst_port,
            protocol: packet.protocol,
        }
    }

    fn definition_name() -> &'static str {
        "5-tuple"
    }
}

/// A 5-tuple packs into 104 of a `u128`'s bits:
/// `src(32) · dst(32) · sport(16) · dport(16) · proto(8)`.
impl CompactKey for FiveTuple {
    type Packed = u128;

    #[inline]
    fn pack(self) -> u128 {
        (u128::from(u32::from(self.src_ip)) << 72)
            | (u128::from(u32::from(self.dst_ip)) << 40)
            | (u128::from(self.src_port) << 24)
            | (u128::from(self.dst_port) << 8)
            | u128::from(self.protocol.number())
    }

    #[inline]
    fn unpack(packed: u128) -> Self {
        FiveTuple {
            src_ip: Ipv4Addr::from((packed >> 72) as u32),
            dst_ip: Ipv4Addr::from((packed >> 40) as u32),
            src_port: (packed >> 24) as u16,
            dst_port: (packed >> 8) as u16,
            protocol: Protocol::from_number(packed as u8),
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

/// Destination-prefix flow definition: packets are aggregated by the first
/// `prefix_len` bits of the destination address (the paper uses /24).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DstPrefix {
    /// Network address with the host bits cleared.
    pub network: Ipv4Addr,
    /// Prefix length in bits (0–32).
    pub prefix_len: u8,
}

impl DstPrefix {
    /// Aggregates an address into its `prefix_len`-bit prefix.
    pub fn of(addr: Ipv4Addr, prefix_len: u8) -> Self {
        let len = prefix_len.min(32);
        let raw = u32::from(addr);
        let masked = if len == 0 {
            0
        } else {
            raw & (u32::MAX << (32 - len))
        };
        DstPrefix {
            network: Ipv4Addr::from(masked),
            prefix_len: len,
        }
    }
}

/// A prefix packs with the classic marker-bit trick: the `prefix_len`
/// significant network bits, preceded by a set marker bit, so prefixes of
/// every length share one injective integer encoding
/// (`packed = (1 << len) | (network >> (32 − len))`). The paper's /24
/// definition therefore occupies only the low 25 bits — a `u32`-class key —
/// while the `u64` representation keeps /25–/32 lossless too.
///
/// The encoding assumes the [`DstPrefix::of`] invariants (host bits
/// cleared, length ≤ 32); hand-built values violating them would alias in
/// the packed domain.
impl CompactKey for DstPrefix {
    type Packed = u64;

    #[inline]
    fn pack(self) -> u64 {
        let len = u32::from(self.prefix_len.min(32));
        let bits = if len == 0 {
            0
        } else {
            u64::from(u32::from(self.network) >> (32 - len))
        };
        (1u64 << len) | bits
    }

    #[inline]
    fn unpack(packed: u64) -> Self {
        let len = 63 - packed.leading_zeros();
        let bits = packed & !(1u64 << len);
        let network = if len == 0 {
            0
        } else {
            (bits as u32) << (32 - len)
        };
        DstPrefix {
            network: Ipv4Addr::from(network),
            prefix_len: len as u8,
        }
    }
}

impl FlowKey for DstPrefix {
    fn from_packet(packet: &PacketRecord) -> Self {
        // The paper's prefix definition is /24 on the destination address.
        DstPrefix::of(packet.dst_ip, 24)
    }

    fn definition_name() -> &'static str {
        "/24 dst prefix"
    }
}

impl fmt::Display for DstPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.prefix_len)
    }
}

/// Runtime-selectable flow definition.
///
/// The analytical scenarios and the simulator both need to switch between
/// flow definitions without changing types; [`FlowDefinition::key_of`]
/// produces a type-erased [`AnyFlowKey`] for that purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDefinition {
    /// 5-tuple flows.
    FiveTuple,
    /// Destination-prefix flows with the given prefix length.
    DstPrefix(u8),
}

impl FlowDefinition {
    /// The /24 destination-prefix definition used throughout the paper.
    pub const PREFIX24: FlowDefinition = FlowDefinition::DstPrefix(24);

    /// Extracts the (type-erased) flow key of a packet under this definition.
    pub fn key_of(self, packet: &PacketRecord) -> AnyFlowKey {
        match self {
            FlowDefinition::FiveTuple => AnyFlowKey::FiveTuple(FiveTuple::from_packet(packet)),
            FlowDefinition::DstPrefix(len) => {
                AnyFlowKey::DstPrefix(DstPrefix::of(packet.dst_ip, len))
            }
        }
    }

    /// Human-readable name of the definition.
    pub(crate) fn name(self) -> String {
        match self {
            FlowDefinition::FiveTuple => "5-tuple".to_string(),
            FlowDefinition::DstPrefix(len) => format!("/{len} dst prefix"),
        }
    }
}

impl fmt::Display for FlowDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Type-erased flow key produced by [`FlowDefinition::key_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnyFlowKey {
    /// A 5-tuple key.
    FiveTuple(FiveTuple),
    /// A destination-prefix key.
    DstPrefix(DstPrefix),
}

impl FlowKey for AnyFlowKey {
    fn from_packet(packet: &PacketRecord) -> Self {
        AnyFlowKey::FiveTuple(FiveTuple::from_packet(packet))
    }

    fn definition_name() -> &'static str {
        "any"
    }
}

/// Bit 127 tags the variant: set for 5-tuples (whose own packing tops out
/// at bit 103), clear for prefixes (bit 32 at most) — so the two key spaces
/// never collide in the packed domain, mirroring the enum's `Eq`.
impl CompactKey for AnyFlowKey {
    type Packed = u128;

    #[inline]
    fn pack(self) -> u128 {
        match self {
            AnyFlowKey::FiveTuple(k) => (1u128 << 127) | k.pack(),
            AnyFlowKey::DstPrefix(k) => u128::from(k.pack()),
        }
    }

    #[inline]
    fn unpack(packed: u128) -> Self {
        if packed >> 127 == 1 {
            AnyFlowKey::FiveTuple(FiveTuple::unpack(packed & !(1u128 << 127)))
        } else {
            AnyFlowKey::DstPrefix(DstPrefix::unpack(packed as u64))
        }
    }
}

impl fmt::Display for AnyFlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyFlowKey::FiveTuple(k) => write!(f, "{k}"),
            AnyFlowKey::DstPrefix(k) => write!(f, "{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Timestamp;

    fn sample_packet() -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_secs_f64(1.0),
            Ipv4Addr::new(10, 1, 2, 3),
            40000,
            Ipv4Addr::new(192, 168, 55, 77),
            443,
            500,
            0,
        )
    }

    #[test]
    fn protocol_number_round_trip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
        assert_eq!(Protocol::Tcp.to_string(), "tcp");
        assert_eq!(Protocol::Other(89).to_string(), "proto-89");
    }

    #[test]
    fn five_tuple_extraction() {
        let p = sample_packet();
        let k = FiveTuple::from_packet(&p);
        assert_eq!(k.src_port, 40000);
        assert_eq!(k.dst_port, 443);
        assert_eq!(k.protocol, Protocol::Tcp);
        assert_eq!(FiveTuple::definition_name(), "5-tuple");
        assert!(k.to_string().contains("192.168.55.77:443"));
    }

    #[test]
    fn five_tuple_distinguishes_directions() {
        let p = sample_packet();
        let mut reverse = p;
        std::mem::swap(&mut reverse.src_ip, &mut reverse.dst_ip);
        std::mem::swap(&mut reverse.src_port, &mut reverse.dst_port);
        assert_ne!(FiveTuple::from_packet(&p), FiveTuple::from_packet(&reverse));
    }

    #[test]
    fn prefix_masking() {
        let k = DstPrefix::of(Ipv4Addr::new(192, 168, 55, 77), 24);
        assert_eq!(k.network, Ipv4Addr::new(192, 168, 55, 0));
        assert_eq!(k.prefix_len, 24);
        let k16 = DstPrefix::of(Ipv4Addr::new(192, 168, 55, 77), 16);
        assert_eq!(k16.network, Ipv4Addr::new(192, 168, 0, 0));
        let k0 = DstPrefix::of(Ipv4Addr::new(192, 168, 55, 77), 0);
        assert_eq!(k0.network, Ipv4Addr::new(0, 0, 0, 0));
        let k32 = DstPrefix::of(Ipv4Addr::new(192, 168, 55, 77), 32);
        assert_eq!(k32.network, Ipv4Addr::new(192, 168, 55, 77));
        // Lengths above 32 are clamped.
        let k40 = DstPrefix::of(Ipv4Addr::new(1, 2, 3, 4), 40);
        assert_eq!(k40.prefix_len, 32);
        assert_eq!(k.to_string(), "192.168.55.0/24");
    }

    #[test]
    fn prefix_aggregates_same_subnet() {
        let p1 = sample_packet();
        let mut p2 = p1;
        p2.dst_ip = Ipv4Addr::new(192, 168, 55, 200);
        p2.src_port = 12345;
        assert_ne!(FiveTuple::from_packet(&p1), FiveTuple::from_packet(&p2));
        assert_eq!(DstPrefix::from_packet(&p1), DstPrefix::from_packet(&p2));
    }

    #[test]
    fn flow_definition_dispatch() {
        let p = sample_packet();
        let k5 = FlowDefinition::FiveTuple.key_of(&p);
        let k24 = FlowDefinition::PREFIX24.key_of(&p);
        assert!(matches!(k5, AnyFlowKey::FiveTuple(_)));
        assert!(matches!(k24, AnyFlowKey::DstPrefix(_)));
        assert_eq!(FlowDefinition::FiveTuple.name(), "5-tuple");
        assert_eq!(FlowDefinition::PREFIX24.name(), "/24 dst prefix");
        assert_eq!(FlowDefinition::DstPrefix(16).to_string(), "/16 dst prefix");
    }

    #[test]
    fn protocol_equality_is_canonical() {
        // A hand-built Other(6) is the same protocol as Tcp: equality,
        // ordering, hashing and the compact packing must all agree.
        assert_eq!(Protocol::Other(6), Protocol::Tcp);
        assert_eq!(
            Protocol::Other(6).cmp(&Protocol::Tcp),
            std::cmp::Ordering::Equal
        );
        let p = sample_packet();
        let canonical = FiveTuple::from_packet(&p);
        let mut aliased = canonical;
        aliased.protocol = Protocol::Other(6);
        assert_eq!(aliased, canonical);
        assert_eq!(aliased.pack(), canonical.pack());
        // Ordering ranks by IANA number.
        assert!(Protocol::Icmp < Protocol::Tcp && Protocol::Tcp < Protocol::Udp);
    }

    #[test]
    fn five_tuple_pack_round_trips() {
        let p = sample_packet();
        let key = FiveTuple::from_packet(&p);
        assert_eq!(FiveTuple::unpack(key.pack()), key);
        // Every field participates in the packing.
        for mutate in [
            |k: &mut FiveTuple| k.src_ip = Ipv4Addr::new(1, 2, 3, 4),
            |k: &mut FiveTuple| k.dst_ip = Ipv4Addr::new(4, 3, 2, 1),
            |k: &mut FiveTuple| k.src_port = 1,
            |k: &mut FiveTuple| k.dst_port = 2,
            |k: &mut FiveTuple| k.protocol = Protocol::Other(200),
        ] {
            let mut other = key;
            mutate(&mut other);
            assert_ne!(other.pack(), key.pack());
            assert_eq!(FiveTuple::unpack(other.pack()), other);
        }
    }

    #[test]
    fn prefix_pack_round_trips_at_every_length() {
        for len in 0..=32u8 {
            let key = DstPrefix::of(Ipv4Addr::new(203, 0, 113, 77), len);
            assert_eq!(DstPrefix::unpack(key.pack()), key, "len {len}");
        }
        // Same network bits at different lengths stay distinct.
        let a = DstPrefix::of(Ipv4Addr::new(10, 0, 0, 0), 8);
        let b = DstPrefix::of(Ipv4Addr::new(10, 0, 0, 0), 16);
        assert_ne!(a.pack(), b.pack());
        // The paper's /24 keys fit in 32 bits.
        let k24 = DstPrefix::of(Ipv4Addr::new(255, 255, 255, 255), 24);
        assert!(k24.pack() <= u64::from(u32::MAX));
    }

    #[test]
    fn any_key_pack_separates_variants() {
        let p = sample_packet();
        let five = AnyFlowKey::FiveTuple(FiveTuple::from_packet(&p));
        let prefix = AnyFlowKey::DstPrefix(DstPrefix::from_packet(&p));
        assert_eq!(AnyFlowKey::unpack(five.pack()), five);
        assert_eq!(AnyFlowKey::unpack(prefix.pack()), prefix);
        assert_ne!(five.pack(), prefix.pack());
    }

    #[test]
    fn any_flow_key_defaults_to_five_tuple() {
        let p = sample_packet();
        assert!(matches!(
            AnyFlowKey::from_packet(&p),
            AnyFlowKey::FiveTuple(_)
        ));
        assert!(AnyFlowKey::DstPrefix(DstPrefix::of(p.dst_ip, 24))
            .to_string()
            .contains("/24"));
    }
}
