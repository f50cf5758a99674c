//! Random hyperplanes and hyperplane families for cosine LSH.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};

use crate::signature::BitSignature;
use crate::SparseVector;

/// One random hyperplane `r⃗`: a dense vector with i.i.d. N(0, 1) entries. The associated
/// hash function is `h_r(x) = [r⃗ · x ≥ 0]` (Theorem 2 of the paper).
#[derive(Debug, Clone)]
pub struct Hyperplane {
    normal: Vec<f64>,
}

impl Hyperplane {
    /// Draw a hyperplane for a `dims`-dimensional space from the given RNG.
    pub fn random(dims: usize, rng: &mut StdRng) -> Self {
        let normal = (0..dims).map(|_| StandardNormal.sample(rng)).collect();
        Hyperplane { normal }
    }

    /// Build a hyperplane from explicit coefficients (useful in tests).
    pub fn from_normal(normal: Vec<f64>) -> Self {
        Hyperplane { normal }
    }

    /// Dimensionality of the space the hyperplane lives in.
    pub fn dims(&self) -> usize {
        self.normal.len()
    }

    /// The dot product `r⃗ · x` for a sparse vector `x`. Components beyond the
    /// hyperplane's dimensionality are ignored.
    pub fn project(&self, vector: SparseVector<'_>) -> f64 {
        vector
            .iter()
            .filter(|(i, _)| (*i as usize) < self.normal.len())
            .map(|&(i, w)| self.normal[i as usize] * w)
            .sum()
    }

    /// The hash bit `h_r(x)`.
    pub fn hash(&self, vector: SparseVector<'_>) -> bool {
        self.project(vector) >= 0.0
    }
}

/// A family of `num_bits` independent hyperplanes: hashing a vector against every member
/// yields its [`BitSignature`].
#[derive(Debug, Clone)]
pub struct HyperplaneFamily {
    planes: Vec<Hyperplane>,
}

impl HyperplaneFamily {
    /// Draw `num_bits` independent hyperplanes for a `dims`-dimensional space.
    ///
    /// Planes are drawn one after another from one RNG seeded with `seed`, so the
    /// first `b` planes are exactly `HyperplaneFamily::new(dims, b, seed)`;
    /// [`LshIndex::truncated`](crate::LshIndex::truncated) relies on this.
    pub fn new(dims: usize, num_bits: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let planes = (0..num_bits)
            .map(|_| Hyperplane::random(dims, &mut rng))
            .collect();
        HyperplaneFamily { planes }
    }

    /// Number of hash bits this family produces.
    pub fn num_bits(&self) -> usize {
        self.planes.len()
    }

    /// Dimensionality of the hashed space.
    pub fn dims(&self) -> usize {
        self.planes.first().map_or(0, Hyperplane::dims)
    }

    /// The individual hyperplanes.
    pub fn planes(&self) -> &[Hyperplane] {
        &self.planes
    }

    /// Hash a vector into its bit signature.
    pub fn hash(&self, vector: SparseVector<'_>) -> BitSignature {
        let bits: Vec<bool> = self.planes.iter().map(|p| p.hash(vector)).collect();
        BitSignature::from_bits(&bits)
    }
}

/// The probability that two vectors at angle `theta` (radians) agree on a single
/// random-hyperplane bit: `1 − θ/π` (Theorem 2 of the paper).
pub fn bit_agreement_probability(theta: f64) -> f64 {
    (1.0 - theta / std::f64::consts::PI).clamp(0.0, 1.0)
}

/// The probability that two vectors at angle `theta` agree on all `num_bits` bits and
/// therefore collide in one hash table: `(1 − θ/π)^{d′}`.
pub fn collision_probability(theta: f64, num_bits: usize) -> f64 {
    bit_agreement_probability(theta).powi(num_bits as i32)
}

/// The lower bound of Theorem 3: the probability that a set of `k` vectors with pairwise
/// angles `thetas` all collide in the same bucket is at least
/// `1 − Σ_{x,y} [1 − (1 − θ_{xy}/π)^{d′}]` (clamped at 0).
pub fn result_set_probability_bound(thetas: &[f64], num_bits: usize) -> f64 {
    let miss_sum: f64 = thetas
        .iter()
        .map(|&theta| 1.0 - collision_probability(theta, num_bits))
        .sum();
    (1.0 - miss_sum).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_matches_manual_dot_product() {
        let plane = Hyperplane::from_normal(vec![1.0, -2.0, 0.5]);
        let v = [(0u32, 2.0), (2u32, 4.0)];
        assert!((plane.project(&v) - (2.0 + 2.0)).abs() < 1e-12);
        assert!(plane.hash(&v));
        let v_neg = [(1u32, 3.0)];
        assert!(!plane.hash(&v_neg));
    }

    #[test]
    fn out_of_range_components_are_ignored() {
        let plane = Hyperplane::from_normal(vec![1.0]);
        let v = [(0u32, 1.0), (5u32, 100.0)];
        assert!((plane.project(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn family_is_deterministic_per_seed() {
        let v = [(0u32, 1.0), (3u32, 0.5), (7u32, 2.0)];
        let a = HyperplaneFamily::new(10, 16, 42).hash(&v);
        let b = HyperplaneFamily::new(10, 16, 42).hash(&v);
        let c = HyperplaneFamily::new(10, 16, 43).hash(&v);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        // Different seeds draw different hyperplanes (overwhelmingly likely to differ).
        assert_ne!(a, c);
    }

    #[test]
    fn identical_vectors_always_collide() {
        let family = HyperplaneFamily::new(8, 32, 7);
        let v = [(1u32, 1.0), (4u32, 3.0)];
        let w = [(1u32, 2.0), (4u32, 6.0)]; // same direction, scaled
        assert_eq!(family.hash(&v), family.hash(&w));
    }

    #[test]
    fn close_vectors_agree_on_more_bits_than_far_vectors() {
        let family = HyperplaneFamily::new(4, 256, 11);
        let a = [(0u32, 1.0), (1u32, 1.0)];
        let b = [(0u32, 1.0), (1u32, 0.9)]; // small angle to a
        let c = [(2u32, 1.0), (3u32, 1.0)]; // orthogonal to a
        let ha = family.hash(&a);
        let close = ha.hamming_distance(&family.hash(&b));
        let far = ha.hamming_distance(&family.hash(&c));
        assert!(
            close < far,
            "close pair disagreed on {close} bits, far pair on {far}"
        );
    }

    #[test]
    fn empirical_bit_agreement_matches_theory() {
        // Orthogonal vectors: theoretical agreement probability is 1 − (π/2)/π = 0.5.
        let a = [(0u32, 1.0)];
        let b = [(1u32, 1.0)];
        let family = HyperplaneFamily::new(2, 2000, 3);
        let agreements = 2000 - family.hash(&a).hamming_distance(&family.hash(&b));
        let rate = agreements as f64 / 2000.0;
        assert!((rate - 0.5).abs() < 0.05, "empirical agreement {rate}");
        assert!((bit_agreement_probability(std::f64::consts::FRAC_PI_2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_bounds_are_sane() {
        assert_eq!(bit_agreement_probability(0.0), 1.0);
        assert_eq!(bit_agreement_probability(std::f64::consts::PI), 0.0);
        assert!(collision_probability(0.1, 10) > collision_probability(0.5, 10));
        assert!(collision_probability(0.3, 4) > collision_probability(0.3, 16));
        // Theorem 3's bound degrades with more pairs and larger angles, never below 0.
        let tight = result_set_probability_bound(&[0.01, 0.01, 0.01], 8);
        let loose = result_set_probability_bound(&[1.0, 1.2, 1.4], 8);
        assert!(tight > loose);
        assert!(loose >= 0.0);
        assert!(tight <= 1.0);
    }
}
