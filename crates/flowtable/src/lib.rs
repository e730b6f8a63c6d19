//! # flowrank-flowtable
//!
//! The keyed-accumulator substrate every hot path of the workspace keys off:
//! compact flow keys, an in-tree integer hasher, and an open-addressing
//! [`FlowMap`] with slab-backed values.
//!
//! The paper's monitor is, at its core, a per-bin flow table — ground-truth
//! classification, the sampled lanes, the bounded top-k backends and the
//! rank-comparison metrics all aggregate *something* per flow key. Before
//! this crate each of them re-implemented that table as a SipHash-hashed
//! `std::collections::HashMap`, which capped classification throughput: the
//! traces are trusted (synthetic or operator-captured), so SipHash's
//! hash-flooding resistance buys nothing and costs a long keyed permutation
//! per lookup. This crate replaces that with
//!
//! * [`CompactKey`] — a lossless packing of a flow identity into a single
//!   machine integer (`FiveTuple` → `u128`, `/24` prefixes → 32 significant
//!   bits of a `u64`), so hashing and equality are register operations,
//! * [`hash`] — an FxHash-style multiply–rotate fold over the packed words
//!   with a final avalanche, strong enough for power-of-two open addressing,
//! * [`FlowMap`] — an open-addressing table mapping packed keys to
//!   slab-backed values, probed linearly and grown whenever it would pass
//!   half load; a removal shifts the rest of its probe run back over the
//!   hole and leaves no tombstone. Its `clear()` keeps its allocations so a
//!   streaming monitor reuses one table across measurement bins instead of
//!   rehashing from zero. An entry's slab position is its **flow id**:
//!   [`FlowMap::upsert_id`] returns it from the same probe that counts the
//!   packet, and it stays put until a [`FlowMap::remove`] or `clear()`.
//!
//! ## Determinism contract
//!
//! Rank-comparison outcomes in this workspace are pinned bit-identical
//! across runs, platforms and thread counts, so the table's behaviour is
//! fully specified:
//!
//! * Iteration (and therefore drain) order is a pure function of the
//!   operation sequence — insertion order, except that [`FlowMap::remove`]
//!   swaps the last-inserted entry into the removed entry's position. No
//!   hash-iteration order ever leaks into results.
//! * The hash function is fixed and unseeded: the same key hashes the same
//!   everywhere. This is a deliberate trade — see *Why not SipHash?* below.
//!
//! ## Why not SipHash?
//!
//! `std`'s default hasher defends hash maps exposed to *adversarial* keys
//! (e.g. attacker-chosen HTTP headers) against collision flooding. A flow
//! monitor replaying trusted traces — or deployed behind its own sampling
//! stage — does not face that adversary through this table, and the paper's
//! experiments spend most of their time in per-packet map lookups, so the
//! keyed permutation is pure overhead. An attacker who *can* inject traffic
//! can already blow up the flow table's cardinality without engineering
//! collisions. Deployments that disagree can wrap their keys' packing with a
//! secret permutation; the table itself stays deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod key;
pub mod map;

pub use hash::{fx_fold, fx_mix64};
pub use key::{CompactKey, PackedKey};
pub use map::FlowMap;
