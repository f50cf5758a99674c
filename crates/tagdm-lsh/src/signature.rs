//! Compact bit signatures produced by hashing a vector with a hyperplane family.

use serde::{Deserialize, Serialize};

/// A fixed-length sequence of hash bits (the `d′`-dimensional-bit LSH signature
/// `g(T_rep(g_x)) = [h_r1(·), …, h_rd′(·)]` of Section 4.1), packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BitSignature {
    len: usize,
    words: Vec<u64>,
}

impl BitSignature {
    /// An all-zero signature of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitSignature {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Build a signature from booleans (index 0 becomes bit 0).
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut sig = BitSignature::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                sig.set(i, true);
            }
        }
        sig
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the signature has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another signature of the same length.
    pub fn hamming_distance(&self, other: &BitSignature) -> usize {
        assert_eq!(self.len, other.len, "signatures must have the same length");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Truncate to the first `len` bits (used by the iterative d′ relaxation, which
    /// shortens signatures to merge buckets without re-hashing).
    pub fn truncated(&self, len: usize) -> BitSignature {
        let len = len.min(self.len);
        let mut words = self.words[..len.div_ceil(64)].to_vec();
        if !len.is_multiple_of(64) {
            words[len / 64] &= (1u64 << (len % 64)) - 1;
        }
        BitSignature { len, words }
    }

    /// The bits as booleans.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut sig = BitSignature::zeros(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            sig.set(i, true);
            assert!(sig.get(i));
        }
        assert_eq!(sig.count_ones(), 8);
        sig.set(64, false);
        assert!(!sig.get(64));
        assert_eq!(sig.count_ones(), 7);
    }

    #[test]
    fn from_bits_matches_get() {
        let bits = vec![true, false, true, true, false];
        let sig = BitSignature::from_bits(&bits);
        assert_eq!(sig.len(), 5);
        assert_eq!(sig.to_bits(), bits);
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a = BitSignature::from_bits(&[true, false, true, false]);
        let b = BitSignature::from_bits(&[true, true, false, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let sig = BitSignature::from_bits(&[true, false, true, true]);
        let t = sig.truncated(2);
        assert_eq!(t.to_bits(), vec![true, false]);
        // Truncating beyond the length is a no-op.
        assert_eq!(sig.truncated(10).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitSignature::zeros(4).get(4);
    }

    proptest! {
        #[test]
        fn prop_hamming_is_a_metric(
            a in proptest::collection::vec(any::<bool>(), 32),
            b in proptest::collection::vec(any::<bool>(), 32),
            c in proptest::collection::vec(any::<bool>(), 32),
        ) {
            let sa = BitSignature::from_bits(&a);
            let sb = BitSignature::from_bits(&b);
            let sc = BitSignature::from_bits(&c);
            prop_assert_eq!(sa.hamming_distance(&sb), sb.hamming_distance(&sa));
            prop_assert!(sa.hamming_distance(&sc) <= sa.hamming_distance(&sb) + sb.hamming_distance(&sc));
            prop_assert_eq!(sa.hamming_distance(&sa), 0);
        }

        #[test]
        fn prop_equal_signatures_iff_zero_distance(
            a in proptest::collection::vec(any::<bool>(), 20),
            b in proptest::collection::vec(any::<bool>(), 20),
        ) {
            let sa = BitSignature::from_bits(&a);
            let sb = BitSignature::from_bits(&b);
            prop_assert_eq!(sa == sb, sa.hamming_distance(&sb) == 0);
        }
    }
}
