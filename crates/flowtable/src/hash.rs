//! FxHash-style integer hashing.
//!
//! The rustc/Firefox "Fx" hash folds each input word into the accumulator
//! with a rotate–xor–multiply step. It is extremely fast on integers but its
//! low output bits avalanche poorly, which matters here because [`crate::FlowMap`]
//! masks the hash with a power-of-two table size. [`fx_mix64`] therefore
//! finishes the fold with a SplitMix64-style avalanche so every output bit
//! depends on every input bit. Like the original, the function is unkeyed
//! and deterministic across processes and platforms — a requirement of the
//! workspace's bit-identical-results contract (see the crate docs for why
//! hash-flooding resistance is deliberately not a goal).

/// The Fx multiplier (64-bit golden-ratio-like constant used by rustc-hash).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One Fx fold step: absorbs `word` into `acc`.
#[inline]
pub fn fx_fold(acc: u64, word: u64) -> u64 {
    (acc.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// SplitMix64 finalizer: avalanches the folded accumulator so the low bits
/// are usable as a power-of-two table index.
#[inline]
pub fn fx_mix64(mut acc: u64) -> u64 {
    acc = (acc ^ (acc >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    acc = (acc ^ (acc >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    acc ^ (acc >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads_low_bits() {
        assert_eq!(fx_mix64(12345), fx_mix64(12345));
        // Sequential inputs must not produce sequential low bits.
        let lows: std::collections::HashSet<u64> = (0u64..256)
            .map(|i| fx_mix64(fx_fold(0, i)) & 0xFF)
            .collect();
        assert!(lows.len() > 150, "low byte collapses: {}", lows.len());
    }
}
