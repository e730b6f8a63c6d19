//! Compact key encodings.
//!
//! A [`CompactKey`] is a flow identity that packs losslessly into a single
//! machine integer. [`crate::FlowMap`] stores and compares only the packed
//! form, so equality is one integer compare and hashing is a couple of
//! multiplies — the structural `Hash`/`Eq` of the original struct never runs
//! on the hot path. `unpack` restores the original key on iteration, which
//! keeps the packed representation an internal detail of the table.

use crate::hash::{fx_fold, fx_mix64};

/// A packed key representation: a plain unsigned integer that can mix
/// itself into a 64-bit hash. (`Send + Sync` is part of the contract —
/// packed keys are plain data, and the tables holding them move across
/// worker threads.)
pub trait PackedKey: Copy + Eq + Ord + std::fmt::Debug + Send + Sync {
    /// Mixes the packed value into a full-avalanche 64-bit hash.
    fn mix(self) -> u64;
}

impl PackedKey for u32 {
    #[inline]
    fn mix(self) -> u64 {
        fx_mix64(fx_fold(0, u64::from(self)))
    }
}

impl PackedKey for u64 {
    #[inline]
    fn mix(self) -> u64 {
        fx_mix64(fx_fold(0, self))
    }
}

impl PackedKey for u128 {
    #[inline]
    fn mix(self) -> u64 {
        fx_mix64(fx_fold(fx_fold(0, (self >> 64) as u64), self as u64))
    }
}

/// A key that converts losslessly to and from a packed integer form.
///
/// The contract is a bijection on the key's value space:
/// `unpack(pack(k)) == k` for every key, and `pack(a) == pack(b)` implies
/// `a == b`. [`crate::FlowMap`] relies on both directions — the first to
/// return original keys from iteration, the second to use integer equality
/// as key equality.
pub trait CompactKey: Copy + Eq + std::fmt::Debug + Send + Sync {
    /// The packed integer representation.
    type Packed: PackedKey;

    /// Packs the key into its integer form.
    fn pack(self) -> Self::Packed;

    /// Restores the key from its packed form.
    ///
    /// Only values produced by [`CompactKey::pack`] are valid inputs.
    fn unpack(packed: Self::Packed) -> Self;
}

/// Integers are their own packed form.
macro_rules! identity_compact_key {
    ($($t:ty),+) => {$(
        impl CompactKey for $t {
            type Packed = $t;

            #[inline]
            fn pack(self) -> $t {
                self
            }

            #[inline]
            fn unpack(packed: $t) -> $t {
                packed
            }
        }
    )+};
}

identity_compact_key!(u32, u64, u128);

/// An IPv4 address packs into its 32-bit integer form (useful for keyed
/// accumulators over hosts or prefix networks).
impl CompactKey for std::net::Ipv4Addr {
    type Packed = u32;

    #[inline]
    fn pack(self) -> u32 {
        u32::from(self)
    }

    #[inline]
    fn unpack(packed: u32) -> Self {
        std::net::Ipv4Addr::from(packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn integer_keys_are_identity() {
        assert_eq!(u32::unpack(7u32.pack()), 7);
        assert_eq!(u64::unpack(7u64.pack()), 7);
        assert_eq!(u128::unpack(7u128.pack()), 7);
    }

    #[test]
    fn ipv4_round_trips() {
        let addr = Ipv4Addr::new(192, 168, 55, 77);
        assert_eq!(Ipv4Addr::unpack(addr.pack()), addr);
    }

    #[test]
    fn mixes_differ_across_widths_of_same_value() {
        // Not a requirement, but a sanity check that each impl folds its
        // own word pattern.
        let a = 0x1234_5678u32.mix();
        let b = u64::from(0x1234_5678u32).mix();
        assert_eq!(a, b, "u32 promotes to the same single-word fold");
        let c = ((1u128 << 64) | 0x1234_5678).mix();
        assert_ne!(b, c, "a set high word folds differently");
    }
}
