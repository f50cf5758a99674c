//! Group tag signatures: sparse weighted vectors over a global topic space.

use serde::{Deserialize, Serialize};

/// A group tag signature `T_rep(g) = {(tc_1, w_1), (tc_2, w_2), …}`: a sparse,
/// non-negative weighted vector over `dims` global topic categories. Topic categories
/// may be tags themselves (frequency/tf·idf signatures, where `dims` is the vocabulary
/// size) or latent topics (LDA signatures, where `dims` is the topic count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TagSignature {
    dims: usize,
    /// Sorted by component index; weights are finite and non-negative.
    entries: Vec<(u32, f64)>,
}

impl TagSignature {
    /// Build a signature from (component, weight) pairs. Duplicate components are
    /// summed; zero and negative weights are dropped; entries are sorted.
    pub fn from_entries(dims: usize, entries: impl IntoIterator<Item = (u32, f64)>) -> Self {
        let mut merged: Vec<(u32, f64)> = Vec::new();
        let mut raw: Vec<(u32, f64)> = entries
            .into_iter()
            .filter(|(i, w)| (*i as usize) < dims && w.is_finite() && *w > 0.0)
            .collect();
        raw.sort_by_key(|(i, _)| *i);
        for (i, w) in raw {
            match merged.last_mut() {
                Some((last_i, last_w)) if *last_i == i => *last_w += w,
                _ => merged.push((i, w)),
            }
        }
        TagSignature {
            dims,
            entries: merged,
        }
    }

    /// Build a dense signature from a full weight vector.
    pub fn from_dense(weights: &[f64]) -> Self {
        TagSignature::from_entries(
            weights.len(),
            weights.iter().enumerate().map(|(i, &w)| (i as u32, w)),
        )
    }

    /// The dimensionality of the global topic space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Whether every component is zero.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of one component.
    pub fn weight(&self, component: u32) -> f64 {
        match self.entries.binary_search_by_key(&component, |(i, _)| *i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// The non-zero `(component, weight)` entries, sorted by component.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Sum of weights (L1 norm, since weights are non-negative).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w).sum()
    }

    /// Dot product with another signature (dimensions must match).
    pub fn dot(&self, other: &TagSignature) -> f64 {
        assert_eq!(self.dims, other.dims, "signature dimensions must match");
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            let (a, wa) = self.entries[i];
            let (b, wb) = other.entries[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine similarity in `[0, 1]` (weights are non-negative). Zero vectors have
    /// similarity 0 with everything (including themselves) by convention.
    pub fn cosine_similarity(&self, other: &TagSignature) -> f64 {
        self.cosine_with_norms(other, self.norm(), other.norm())
    }

    /// [`TagSignature::cosine_similarity`] given both signatures' L2 norms, for callers
    /// that cache them.
    pub fn cosine_with_norms(&self, other: &TagSignature, norm: f64, other_norm: f64) -> f64 {
        let denom = norm * other_norm;
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(0.0, 1.0)
    }

    /// L1-normalize into a probability distribution (no-op for the zero signature).
    pub fn normalized(&self) -> TagSignature {
        let total = self.sum();
        if total == 0.0 {
            return self.clone();
        }
        TagSignature {
            dims: self.dims,
            entries: self.entries.iter().map(|&(i, w)| (i, w / total)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_entries_merges_and_sorts() {
        let s = TagSignature::from_entries(10, vec![(3, 1.0), (1, 2.0), (3, 0.5), (9, 0.0)]);
        assert_eq!(s.entries(), &[(1, 2.0), (3, 1.5)]);
        assert_eq!(s.weight(3), 1.5);
        assert_eq!(s.weight(5), 0.0);
    }

    #[test]
    fn out_of_range_and_negative_entries_are_dropped() {
        let s = TagSignature::from_entries(4, vec![(7, 1.0), (2, -3.0), (1, f64::NAN), (0, 2.0)]);
        assert_eq!(s.entries(), &[(0, 2.0)]);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let s = TagSignature::from_entries(5, vec![(0, 1.0), (2, 2.0)]);
        assert!((s.cosine_similarity(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        let a = TagSignature::from_entries(4, vec![(0, 1.0), (1, 1.0)]);
        let b = TagSignature::from_entries(4, vec![(2, 3.0), (3, 1.0)]);
        assert_eq!(a.cosine_similarity(&b), 0.0);
    }

    #[test]
    fn zero_vector_has_zero_similarity() {
        let z = TagSignature::from_entries(3, []);
        let a = TagSignature::from_entries(3, vec![(1, 1.0)]);
        assert_eq!(z.cosine_similarity(&a), 0.0);
        assert_eq!(z.cosine_similarity(&z), 0.0);
        assert!(z.is_zero());
    }

    #[test]
    fn from_dense_keeps_the_non_zero_weights() {
        let s = TagSignature::from_dense(&[0.0, 1.5, 0.0, 2.0]);
        assert_eq!(s.entries(), &[(1, 1.5), (3, 2.0)]);
        assert_eq!(s.dims(), 4);
    }

    #[test]
    fn normalization() {
        let s = TagSignature::from_entries(3, vec![(0, 1.0), (1, 3.0)]);
        let l1 = s.normalized();
        assert!((l1.sum() - 1.0).abs() < 1e-12);
        // Normalizing preserves direction (cosine 1 with original).
        assert!((s.cosine_similarity(&l1) - 1.0).abs() < 1e-12);
        // The zero signature stays zero.
        assert!(TagSignature::from_entries(3, []).normalized().is_zero());
    }

    proptest! {
        #[test]
        fn prop_cosine_is_symmetric_and_bounded(
            a in proptest::collection::vec(0.0f64..10.0, 8),
            b in proptest::collection::vec(0.0f64..10.0, 8),
        ) {
            let sa = TagSignature::from_dense(&a);
            let sb = TagSignature::from_dense(&b);
            let ab = sa.cosine_similarity(&sb);
            let ba = sb.cosine_similarity(&sa);
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn prop_dot_matches_dense_dot(
            a in proptest::collection::vec(0.0f64..5.0, 10),
            b in proptest::collection::vec(0.0f64..5.0, 10),
        ) {
            let sa = TagSignature::from_dense(&a);
            let sb = TagSignature::from_dense(&b);
            let expected: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            prop_assert!((sa.dot(&sb) - expected).abs() < 1e-9);
        }
    }
}
