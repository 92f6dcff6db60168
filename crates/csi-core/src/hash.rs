//! The workspace's one FNV-1a: every digest, fingerprint and clustering
//! key in a report goes through here, so two sites can never drift apart
//! on the constants.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit, one multiply per byte.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the offset basis.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Folds one byte in.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
    }

    /// Folds every byte of `bytes` in, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// FNV-1a style folding hasher consuming input eight bytes per multiply,
/// so digesting a million-row lane costs one round per word, not one per
/// byte. Not byte-compatible with [`Fnv1a`]; stability matters only
/// within a report, where equal inputs make identical call sequences and
/// so digest equally.
pub(crate) struct WordFnv(u64);

impl WordFnv {
    /// A hasher at the offset basis.
    #[inline]
    pub(crate) fn new() -> WordFnv {
        WordFnv(OFFSET_BASIS)
    }

    /// Folds one 64-bit word in.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    /// Folds `bytes` in as little-endian words, the tail zero-padded.
    #[inline]
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(tail));
        }
    }

    /// The digest so far.
    #[inline]
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        h.byte(b'b');
        h.bytes(b"ar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn word_folding_pads_the_tail_and_keeps_order() {
        let mut a = WordFnv::new();
        a.write(b"12345678abc");
        let mut b = WordFnv::new();
        b.word(u64::from_le_bytes(*b"12345678"));
        b.word(u64::from_le_bytes(*b"abc\0\0\0\0\0"));
        assert_eq!(a.finish(), b.finish());
        let mut c = WordFnv::new();
        c.write(b"abc");
        c.write(b"12345678");
        assert_ne!(a.finish(), c.finish());
    }
}
