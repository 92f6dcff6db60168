//! The workspace's two seeded generators. Every campaign is a pure
//! function of `(spec, seed)`, so the sequences here are part of the
//! report format: one copy of each, beside [`crate::hash`].

/// Marsaglia xorshift64 (13, 7, 17). The state must never be zero.
#[inline]
pub fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// SplitMix64: total over every state, so it also serves to derive
/// well-mixed draws from small or adjacent seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
