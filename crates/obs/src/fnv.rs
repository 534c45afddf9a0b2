//! FNV-1a over 64-bit words: the workspace's one sequence fingerprint
//! (trace event streams, schedule decision sequences).

/// A running FNV-1a hash, fed 64-bit words as their little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The hash of the empty sequence.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds one word into the hash.
    #[inline]
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vector() {
        // FNV-1a 64 of the bytes "abcdefgh".
        let mut h = Fnv1a::new();
        h.push(0x6867_6665_6463_6261); // "abcdefgh"
        assert_eq!(h.value(), 0x25da_8c18_36a8_d66d);
    }
}
