//! Facility dispersion heuristics.
//!
//! The DV-FDP algorithm of the paper (Algorithm 2) is the Ravi–Rosenkrantz–Tayi greedy
//! for MAX-AVG dispersion: initialize the result with the endpoints of a maximum-weight
//! edge, then repeatedly add the point with the largest total distance to the points
//! already selected. For metrics this is a factor-4 approximation of the optimal average
//! pairwise distance (Theorem 4 of the paper). The constraint-folding variant
//! (DV-FDP-Fo, Section 5.3) additionally requires every added point to satisfy hard
//! constraints against the already-selected points; [`max_avg_greedy_with`] accepts that
//! admissibility predicate.

use crate::distance::DistanceMatrix;

/// Greedy MAX-AVG dispersion (Ravi et al. 1991): pick `k` points with large average
/// pairwise distance. Returns fewer than `k` indices only if the matrix has fewer than
/// `k` points. The result is sorted.
pub fn max_avg_greedy(matrix: &DistanceMatrix, k: usize) -> Vec<usize> {
    max_avg_greedy_with(matrix, k, |_, _| true)
}

/// Greedy MAX-AVG dispersion with an admissibility predicate: a candidate point `c` is
/// only eligible if `admissible(&selected, c)` holds. When no admissible candidate
/// remains the selection stops early (possibly below `k`).
pub fn max_avg_greedy_with(
    matrix: &DistanceMatrix,
    k: usize,
    mut admissible: impl FnMut(&[usize], usize) -> bool,
) -> Vec<usize> {
    let n = matrix.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    if k == 1 || n == 1 {
        // Degenerate: any single point maximizes (vacuous) average distance; pick the
        // first admissible one.
        return (0..n).find(|&i| admissible(&[], i)).into_iter().collect();
    }

    // Seed with the admissible pair of maximum distance.
    let mut best_pair: Option<(usize, usize, f64)> = None;
    for i in 1..n {
        for j in 0..i {
            if !(admissible(&[], i) && admissible(&[i], j) && admissible(&[j], i)) {
                continue;
            }
            let d = matrix.get(i, j);
            if best_pair.is_none_or(|(_, _, bd)| d > bd) {
                best_pair = Some((i, j, d));
            }
        }
    }
    let Some((a, b, _)) = best_pair else {
        return Vec::new();
    };
    let mut selected = vec![a.min(b), a.max(b)];

    while selected.len() < k && selected.len() < n {
        let mut best: Option<(usize, f64)> = None;
        for candidate in 0..n {
            if selected.contains(&candidate) || !admissible(&selected, candidate) {
                continue;
            }
            let gain = matrix.distance_to_set(candidate, &selected);
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((candidate, gain));
            }
        }
        match best {
            Some((candidate, _)) => selected.push(candidate),
            None => break,
        }
    }
    selected.sort_unstable();
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Average pairwise distance within `subset` (0 for fewer than two points): the
    /// MAX-AVG dispersion objective.
    fn subset_average(matrix: &DistanceMatrix, subset: &[usize]) -> f64 {
        let pairs = subset.len() * subset.len().saturating_sub(1) / 2;
        if pairs == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (a, &i) in subset.iter().enumerate() {
            for &j in &subset[a + 1..] {
                sum += matrix.get(i, j);
            }
        }
        sum / pairs as f64
    }

    /// Exact MAX-AVG dispersion by exhaustive enumeration of all `k`-subsets: the
    /// oracle for the factor-4 guarantee (Theorem 4). Exponential in `k`.
    fn exact_max_avg(matrix: &DistanceMatrix, k: usize) -> Vec<usize> {
        let n = matrix.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let k = k.min(n);
        let mut best_subset: Vec<usize> = Vec::new();
        let mut best_score = f64::NEG_INFINITY;
        let mut current: Vec<usize> = Vec::with_capacity(k);
        enumerate_subsets(n, k, 0, &mut current, &mut |subset| {
            let score = subset_average(matrix, subset);
            if score > best_score {
                best_score = score;
                best_subset = subset.to_vec();
            }
        });
        best_subset
    }

    /// Call `visit` on every `k`-subset of `{start, …, n-1}` extending `current`.
    fn enumerate_subsets(
        n: usize,
        k: usize,
        start: usize,
        current: &mut Vec<usize>,
        visit: &mut impl FnMut(&[usize]),
    ) {
        if current.len() == k {
            visit(current);
            return;
        }
        let remaining = k - current.len();
        for i in start..n {
            if n - i < remaining {
                break;
            }
            current.push(i);
            enumerate_subsets(n, k, i + 1, current, visit);
            current.pop();
        }
    }

    fn line_metric(points: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(points.len(), |i, j| (points[i] - points[j]).abs())
    }

    /// Random points in the unit hypercube with Euclidean distance (a metric).
    fn random_euclidean(n: usize, dims: usize, seed: u64) -> DistanceMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dims).map(|_| rng.gen::<f64>()).collect())
            .collect();
        DistanceMatrix::from_fn(n, |i, j| {
            points[i]
                .iter()
                .zip(&points[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        })
    }

    #[test]
    fn greedy_picks_extremes_on_a_line() {
        let m = line_metric(&[0.0, 1.0, 2.0, 10.0, 5.0]);
        let picks = max_avg_greedy(&m, 2);
        assert_eq!(picks, vec![0, 3]);
        let picks3 = max_avg_greedy(&m, 3);
        assert!(picks3.contains(&0) && picks3.contains(&3));
        assert_eq!(picks3.len(), 3);
    }

    #[test]
    fn greedy_handles_degenerate_sizes() {
        let m = line_metric(&[0.0, 4.0, 9.0]);
        assert!(max_avg_greedy(&m, 0).is_empty());
        assert_eq!(max_avg_greedy(&m, 1).len(), 1);
        assert_eq!(max_avg_greedy(&m, 10), vec![0, 1, 2]);
        let empty = DistanceMatrix::from_fn(0, |_, _| 0.0);
        assert!(max_avg_greedy(&empty, 3).is_empty());
        assert!(exact_max_avg(&empty, 2).is_empty());
    }

    #[test]
    fn exact_matches_greedy_on_easy_instances() {
        let m = line_metric(&[0.0, 1.0, 2.0, 10.0]);
        assert_eq!(exact_max_avg(&m, 2), vec![0, 3]);
        // Exact is at least as good as greedy by definition.
        let greedy = max_avg_greedy(&m, 3);
        let exact = exact_max_avg(&m, 3);
        assert!(subset_average(&m, &exact) >= subset_average(&m, &greedy) - 1e-12);
    }

    #[test]
    fn greedy_respects_the_factor_4_guarantee_on_metrics() {
        for seed in 0..8 {
            let m = random_euclidean(18, 3, seed);
            for k in 2..=4 {
                let exact = exact_max_avg(&m, k);
                let greedy = max_avg_greedy(&m, k);
                let opt = subset_average(&m, &exact);
                let app = subset_average(&m, &greedy);
                assert!(
                    opt <= 4.0 * app + 1e-9,
                    "approximation ratio violated: opt={opt} app={app} (seed {seed}, k {k})"
                );
            }
        }
    }

    #[test]
    fn admissibility_predicate_is_honoured() {
        let m = line_metric(&[0.0, 1.0, 2.0, 10.0, 20.0]);
        // Forbid point 4 entirely.
        let picks = max_avg_greedy_with(&m, 3, |_, c| c != 4);
        assert!(!picks.contains(&4));
        assert_eq!(picks.len(), 3);
        // Forbid everything: no result.
        let picks = max_avg_greedy_with(&m, 3, |_, _| false);
        assert!(picks.is_empty());
        // Predicate depending on the current selection: at most 2 picks below index 3.
        let picks = max_avg_greedy_with(&m, 4, |sel, c| {
            c >= 3 || sel.iter().filter(|&&s| s < 3).count() < 2
        });
        assert!(picks.iter().filter(|&&s| s < 3).count() <= 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_greedy_returns_k_distinct_valid_indices(
            values in proptest::collection::vec(0.0f64..100.0, 4..20),
            k in 2usize..5,
        ) {
            let m = line_metric(&values);
            let picks = max_avg_greedy(&m, k);
            prop_assert_eq!(picks.len(), k.min(values.len()));
            let mut dedup = picks.clone();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), picks.len());
            prop_assert!(picks.iter().all(|&i| i < values.len()));
        }

        #[test]
        fn prop_exact_is_an_upper_bound_for_greedy(
            values in proptest::collection::vec(0.0f64..100.0, 4..12),
            k in 2usize..4,
        ) {
            let m = line_metric(&values);
            let exact = exact_max_avg(&m, k);
            let greedy = max_avg_greedy(&m, k);
            prop_assert!(subset_average(&m, &exact) >= subset_average(&m, &greedy) - 1e-9);
        }
    }
}
