//! Symmetric pairwise distance matrices.

use serde::{Deserialize, Serialize};

/// A symmetric `n × n` matrix of non-negative pairwise distances with zero diagonal,
/// stored as a packed lower triangle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    n: usize,
    /// Packed strict lower triangle, row-major: entry `(i, j)` with `i > j` lives at
    /// `i * (i - 1) / 2 + j`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Build an `n × n` matrix by evaluating `dist(i, j)` for every pair `i > j`.
    /// Negative or non-finite distances are clamped to 0.
    pub fn from_fn(n: usize, mut dist: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
        for i in 1..n {
            for j in 0..i {
                let d = dist(i, j);
                data.push(if d.is_finite() && d > 0.0 { d } else { 0.0 });
            }
        }
        DistanceMatrix { n, data }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is over zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance between points `i` and `j` (0 when `i == j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        if i == j {
            return 0.0;
        }
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        self.data[hi * (hi - 1) / 2 + lo]
    }

    /// Sum of distances from point `p` to every point in `subset`.
    pub fn distance_to_set(&self, p: usize, subset: &[usize]) -> f64 {
        subset.iter().map(|&s| self.get(p, s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line_metric(points: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(points.len(), |i, j| (points[i] - points[j]).abs())
    }

    #[test]
    fn get_is_symmetric_with_zero_diagonal() {
        let m = line_metric(&[0.0, 1.0, 3.0, 7.0]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.get(0, 3), 7.0);
        assert_eq!(m.get(3, 0), 7.0);
        assert_eq!(m.get(1, 2), 2.0);
    }

    #[test]
    fn distance_to_set_sums_distances() {
        let m = line_metric(&[0.0, 1.0, 3.0]);
        assert!((m.distance_to_set(2, &[0, 1]) - 5.0).abs() < 1e-12);
        assert_eq!(m.distance_to_set(0, &[]), 0.0);
    }

    #[test]
    fn negative_and_nan_distances_are_clamped() {
        let m = DistanceMatrix::from_fn(3, |i, j| if (i, j) == (1, 0) { -5.0 } else { f64::NAN });
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 1), 0.0);
    }

    proptest! {
        #[test]
        fn prop_packed_storage_matches_function(values in proptest::collection::vec(0.0f64..100.0, 2..12)) {
            let m = line_metric(&values);
            for i in 0..values.len() {
                for j in 0..values.len() {
                    let expected = (values[i] - values[j]).abs();
                    prop_assert!((m.get(i, j) - expected).abs() < 1e-12);
                }
            }
        }
    }
}
