//! # flowrank-net
//!
//! Packet and flow substrate for the `flowrank` workspace.
//!
//! The paper's monitor model is simple: a passive tap observes packets on a
//! link, optionally samples them, classifies them into flows (either by the
//! usual 5-tuple or by /24 destination prefix) and ranks the flows by their
//! size in packets. This crate provides exactly those building blocks,
//! without any I/O beyond a from-scratch libpcap file decoder/writer:
//!
//! * [`packet`] — the in-memory packet record all other crates operate on.
//! * [`batch`] — the SoA [`PacketBatch`]: column vectors of timestamps,
//!   packed keys, lengths and sequence numbers, the batched unit of work the
//!   zero-copy pcap decoder, batch classification and skip-based sampling
//!   all share.
//! * [`flowkey`] — flow identities: [`flowkey::FiveTuple`],
//!   [`flowkey::DstPrefix`], and the runtime-selectable
//!   [`flowkey::FlowDefinition`] (Sec. 6 compares both definitions).
//! * [`classify`] — the flow table that aggregates packets into flows and
//!   produces ranked lists.
//! * [`headers`] — Ethernet II / IPv4 / TCP / UDP encoding and parsing with
//!   checksums, used to materialise synthetic packets as real frames.
//! * [`pcap`] — classic libpcap capture-file decoder and writer so synthetic
//!   traces can be exported to, and ingested from, standard tooling.
//! * [`tenant`] — compact [`TenantId`]s and the tenant-tagged
//!   [`TaggedBatch`], the unit of work flowing between fleet sources and
//!   the multi-tenant fleet layer.
//!
//! The crate is sans-IO in the smoltcp spirit: every component is driven
//! packet-by-packet by its caller and owns no sockets, timers or files. The
//! pcap decoder reads a capture the caller holds in memory; the pcap writer
//! writes to any `std::io::Write`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod classify;
pub mod error;
pub mod flowkey;
pub mod headers;
pub mod packet;
pub mod pcap;
pub mod tenant;

pub use batch::PacketBatch;
pub use classify::{FlowStats, FlowTable, RankedFlow};
pub use error::{NetError, NetResult};
pub use flowkey::{AnyFlowKey, DstPrefix, FiveTuple, FlowDefinition, FlowKey, Protocol};
pub use packet::{PacketRecord, Timestamp};
pub use tenant::{TaggedBatch, TenantId};

// The compact-key substrate the flow tables are built on, re-exported so
// downstream crates can name the traits without a direct dependency.
pub use flowrank_flowtable::{CompactKey, FlowMap};
