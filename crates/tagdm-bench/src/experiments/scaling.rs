//! Figures 7–8: execution time and quality as the number of input tagging-action tuples
//! varies.
//!
//! The paper builds four bins of 30K, 20K, 10K and 5K tagging-action tuples (each "a
//! result of some query on the entire dataset") and compares, per bin, the Exact
//! baseline against the smart algorithm for one similarity problem (Problem 1, solved by
//! SM-LSH-Fo) and one diversity problem (Problem 6, solved by DV-FDP-Fo). This module
//! reproduces the sweep with bin sizes proportional to the configured scale.

use serde::{Deserialize, Serialize};

use tagdm_core::catalog::{self, ProblemParams};
use tagdm_core::evaluation::{evaluate, QualityReport};
use tagdm_core::solvers::{ConstraintMode, DvFdpSolver, ExactSolver, SmLshSolver, Solver};
use tagdm_data::query::size_bins;

use crate::report::{format_ms, render_table};
use crate::workloads::{ExperimentScale, Workload};

/// Measurements for one corpus bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinResult {
    /// Number of tagging-action tuples in the bin.
    pub num_actions: usize,
    /// Number of candidate groups enumerated from the bin.
    pub num_groups: usize,
    /// Exact on Problem 1, the smart (SM-LSH-Fo) run on Problem 1, Exact on Problem 6,
    /// and the smart (DV-FDP-Fo) run on Problem 6.
    pub exact_p1: QualityReport,
    /// SM-LSH-Fo on Problem 1.
    pub smart_p1: QualityReport,
    /// Exact on Problem 6.
    pub exact_p6: QualityReport,
    /// DV-FDP-Fo on Problem 6.
    pub smart_p6: QualityReport,
}

/// The full record behind Figures 7–8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingResult {
    /// Experiment scale name.
    pub scale: String,
    /// Problem parameters used.
    pub params: ProblemParams,
    /// Per-bin measurements, largest bin first (as in the paper's X axis).
    pub bins: Vec<BinResult>,
}

impl ScalingResult {
    /// Render the execution-time table (Figure 7).
    pub fn time_table(&self) -> String {
        let rows = self
            .bins
            .iter()
            .map(|bin| {
                vec![
                    format!("{}", bin.num_actions),
                    format!("{}", bin.num_groups),
                    format_ms(bin.exact_p1.elapsed_ms),
                    format_ms(bin.smart_p1.elapsed_ms),
                    format_ms(bin.exact_p6.elapsed_ms),
                    format_ms(bin.smart_p6.elapsed_ms),
                ]
            })
            .collect::<Vec<_>>();
        render_table(
            "Figure 7 — execution time vs number of tagging tuples",
            &[
                "tuples",
                "groups",
                "Exact (P1)",
                "SM-LSH-Fo (P1)",
                "Exact (P6)",
                "DV-FDP-Fo (P6)",
            ],
            &rows,
        )
    }

    /// Render the quality table (Figure 8).
    pub fn quality_table(&self) -> String {
        let rows = self
            .bins
            .iter()
            .map(|bin| {
                vec![
                    format!("{}", bin.num_actions),
                    format!("{:.4}", bin.exact_p1.avg_pairwise_tag_similarity),
                    format!("{:.4}", bin.smart_p1.avg_pairwise_tag_similarity),
                    format!("{:.4}", bin.exact_p6.avg_pairwise_tag_diversity),
                    format!("{:.4}", bin.smart_p6.avg_pairwise_tag_diversity),
                ]
            })
            .collect::<Vec<_>>();
        render_table(
            "Figure 8 — result quality vs number of tagging tuples",
            &[
                "tuples",
                "Exact tag-sim (P1)",
                "SM-LSH-Fo tag-sim (P1)",
                "Exact tag-div (P6)",
                "DV-FDP-Fo tag-div (P6)",
            ],
            &rows,
        )
    }
}

/// The bin sizes used per scale (fractions of the corpus mirroring the paper's
/// 30K/20K/10K/5K sweep on its 33K-tuple corpus).
pub fn bin_sizes(scale: ExperimentScale, num_actions: usize) -> Vec<usize> {
    let fractions: [f64; 4] = [0.9, 0.6, 0.3, 0.15];
    match scale {
        ExperimentScale::Paper => vec![30_000, 20_000, 10_000, 5_000],
        _ => fractions
            .iter()
            .map(|f| ((num_actions as f64 * f) as usize).max(1))
            .collect(),
    }
}

/// Run the scaling sweep.
pub fn run(scale: ExperimentScale, params_override: Option<ProblemParams>) -> ScalingResult {
    let base = Workload::build(scale);
    let sizes = bin_sizes(scale, base.dataset.num_actions());
    let datasets = size_bins(&base.dataset, &sizes, 0x5CA1E);

    let mut bins = Vec::with_capacity(datasets.len());
    for dataset in datasets {
        let workload = Workload::from_dataset(scale, dataset);
        let params = params_override.unwrap_or_else(|| workload.relaxed_params());
        let p1 = catalog::problem_1(params);
        let p6 = catalog::problem_6(params);

        let exact: Box<dyn Solver> = if workload.num_groups() > 1_500 {
            Box::new(ExactSolver::with_cap(5_000_000))
        } else {
            Box::new(ExactSolver::new())
        };
        let lsh = SmLshSolver::new(ConstraintMode::Fold);
        let fdp = DvFdpSolver::new(ConstraintMode::Fold);

        let exact_p1 = evaluate(&workload.context, &p1, &exact.solve(&workload.context, &p1));
        let smart_p1 = evaluate(&workload.context, &p1, &lsh.solve(&workload.context, &p1));
        let exact_p6 = evaluate(&workload.context, &p6, &exact.solve(&workload.context, &p6));
        let smart_p6 = evaluate(&workload.context, &p6, &fdp.solve(&workload.context, &p6));

        bins.push(BinResult {
            num_actions: workload.dataset.num_actions(),
            num_groups: workload.num_groups(),
            exact_p1,
            smart_p1,
            exact_p6,
            smart_p6,
        });
    }

    ScalingResult {
        scale: scale.name().to_string(),
        params: params_override.unwrap_or_else(|| base.relaxed_params()),
        bins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_sizes_shrink_monotonically() {
        let sizes = bin_sizes(ExperimentScale::Small, 1_000);
        assert_eq!(sizes.len(), 4);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(
            bin_sizes(ExperimentScale::Paper, 33_322),
            vec![30_000, 20_000, 10_000, 5_000]
        );
    }

    #[test]
    fn scaling_sweep_produces_one_result_per_bin() {
        let result = run(ExperimentScale::Small, None);
        assert_eq!(result.bins.len(), 4);
        // Bins are ordered largest-first and group counts follow corpus size.
        assert!(result
            .bins
            .windows(2)
            .all(|w| w[0].num_actions >= w[1].num_actions));
        for bin in &result.bins {
            assert!(bin.num_groups > 0);
            // The smart solvers never exceed Exact's objective when Exact is uncapped
            // and both produce results.
            if !bin.exact_p1.null_result && !bin.smart_p1.null_result {
                assert!(bin.smart_p1.objective <= bin.exact_p1.objective + 1e-9);
            }
        }
        let t = result.time_table();
        let q = result.quality_table();
        assert!(t.contains("Exact (P1)"));
        assert!(q.contains("tag-div"));
    }
}
