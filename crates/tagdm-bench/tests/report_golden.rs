//! The pretty-printed experiment record is pinned to exact bytes
//! (`tests/golden/report.json`): `report::write_json` writes it with
//! `serde_json::to_string_pretty`, and it must read back to an equal record.

use tagdm_bench::experiments::scaling::{BinResult, ScalingResult};
use tagdm_bench::user_study::StudyResult;
use tagdm_core::catalog::ProblemParams;
use tagdm_core::evaluation::QualityReport;

const GOLDEN: &str = include_str!("golden/report.json");

fn quality(solver: &str, groups: Vec<usize>, objective: f64) -> QualityReport {
    QualityReport {
        solver: solver.to_string(),
        null_result: groups.is_empty(),
        groups,
        objective,
        avg_pairwise_tag_similarity: 0.8125,
        avg_pairwise_tag_diversity: 0.1875,
        support: 41,
        support_fraction: 0.000_137,
        feasible: objective > 0.0,
        elapsed_ms: 1.4600000000000002,
        candidates_evaluated: 1561,
    }
}

fn record() -> (ScalingResult, StudyResult) {
    let scaling = ScalingResult {
        scale: "small \"pinned\"".to_string(),
        params: ProblemParams {
            k: 3,
            min_support: 5,
            user_threshold: 0.2,
            item_threshold: 0.5,
        },
        bins: vec![BinResult {
            num_actions: 30_000,
            num_groups: 63,
            exact_p1: quality("Exact", vec![3, 17, 42], std::f64::consts::E),
            smart_p1: quality("SM-LSH-Fo", vec![3, 17], 1e-7),
            exact_p6: quality("Exact", Vec::new(), 0.0),
            smart_p6: quality("DV-FDP-Fo", vec![0], -0.0),
        }],
    };
    let study = StudyResult {
        total_votes: 90,
        votes: [10, 20, 15, 5, 5, 35],
        percentages: [11.1, 22.2, 16.7, 5.6, 5.6, 38.9],
    };
    (scaling, study)
}

#[test]
fn pretty_report_matches_its_pinned_bytes() {
    let record = record();
    let written = serde_json::to_string_pretty(&record).unwrap();
    assert_eq!(written, GOLDEN.trim_end_matches('\n'));
    let read: (ScalingResult, StudyResult) = serde_json::from_str(GOLDEN).unwrap();
    assert_eq!(read, record);
}
