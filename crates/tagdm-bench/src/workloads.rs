//! Experiment workloads: datasets, group enumerations and mining contexts shared by the
//! figure binaries and the tests.

use serde::{Deserialize, Serialize};

use tagdm_core::catalog::ProblemParams;
use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_data::dataset::Dataset;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_data::group::{GroupingScheme, TaggingActionGroup};

/// The scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// A few hundred groups; every experiment (including Exact) finishes in seconds.
    /// Used by the tests.
    Small,
    /// Around a thousand candidate groups — large enough that the Exact baseline is
    /// visibly slower than the heuristics while still finishing; the default for the
    /// figure binaries.
    Medium,
    /// The paper-scale corpus (≈33K tagging actions). The Exact baseline at this scale
    /// is intractable for k = 3 (that is the paper's point); the binaries cap its
    /// candidate budget and report the truncation.
    Paper,
}

impl ExperimentScale {
    /// Parse from the `TAGDM_SCALE` environment variable (default: medium).
    pub fn from_env() -> Self {
        match std::env::var("TAGDM_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "small" => ExperimentScale::Small,
            "paper" | "full" => ExperimentScale::Paper,
            _ => ExperimentScale::Medium,
        }
    }

    /// The generator configuration for this scale.
    pub fn generator_config(self) -> GeneratorConfig {
        match self {
            ExperimentScale::Small => GeneratorConfig::small(),
            ExperimentScale::Medium => GeneratorConfig::medium(),
            ExperimentScale::Paper => GeneratorConfig::paper_scale(),
        }
    }

    /// Number of LDA topics used for group tag signatures (the paper uses 25; the small
    /// scale uses fewer to keep test turnaround low).
    pub fn num_topics(self) -> usize {
        match self {
            ExperimentScale::Small => 10,
            ExperimentScale::Medium | ExperimentScale::Paper => 25,
        }
    }

    /// The grouping attributes: the small/medium scales group over a subset of the
    /// schema so that the Exact baseline remains runnable, the paper scale groups over
    /// the full cartesian product exactly as in Section 6.
    pub fn grouping_attributes(self) -> Vec<(&'static str, &'static str)> {
        match self {
            ExperimentScale::Small => vec![("user", "gender"), ("user", "age"), ("item", "genre")],
            ExperimentScale::Medium => vec![
                ("user", "gender"),
                ("user", "age"),
                ("user", "occupation"),
                ("item", "genre"),
            ],
            ExperimentScale::Paper => vec![
                ("user", "gender"),
                ("user", "age"),
                ("user", "occupation"),
                ("user", "state"),
                ("item", "genre"),
                ("item", "actor"),
                ("item", "director"),
            ],
        }
    }

    /// Minimum tuples per candidate group (the paper keeps groups with ≥ 5 tuples).
    pub fn min_group_size(self) -> usize {
        5
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Small => "small",
            ExperimentScale::Medium => "medium",
            ExperimentScale::Paper => "paper",
        }
    }
}

/// A fully materialized workload: the corpus, its candidate groups and the mining
/// context with LDA tag signatures.
pub struct Workload {
    /// The scale this workload was built at.
    pub scale: ExperimentScale,
    /// The synthetic corpus.
    pub dataset: Dataset,
    /// The mining context (owns the candidate groups and their signatures).
    pub context: MiningContext,
    /// The paper's problem parameters for this corpus (k = 3, p = 1%, q = r = 0.5).
    pub params: ProblemParams,
}

impl Workload {
    /// Build the workload for a scale (deterministic).
    pub fn build(scale: ExperimentScale) -> Self {
        let dataset = MovieLensStyleGenerator::new(scale.generator_config()).generate();
        let context = build_context(&dataset, scale);
        let params = ProblemParams::paper_defaults(dataset.num_actions());
        Workload {
            scale,
            dataset,
            context,
            params,
        }
    }

    /// Build the workload over an existing dataset (used by the scaling experiment's
    /// size bins so that every bin shares the same generator output).
    pub fn from_dataset(scale: ExperimentScale, dataset: Dataset) -> Self {
        let context = build_context(&dataset, scale);
        let params = ProblemParams::paper_defaults(dataset.num_actions());
        Workload {
            scale,
            dataset,
            context,
            params,
        }
    }

    /// Number of candidate groups in the context.
    pub fn num_groups(&self) -> usize {
        self.context.num_groups()
    }

    /// Problem parameters with looser constraint thresholds, used when a scale's group
    /// descriptions are too coarse for the paper's q = r = 0.5 to be satisfiable.
    pub fn relaxed_params(&self) -> ProblemParams {
        ProblemParams {
            user_threshold: 0.25,
            item_threshold: 0.25,
            ..self.params
        }
    }
}

/// Enumerate candidate groups and build the mining context for a dataset at a scale.
pub fn build_context(dataset: &Dataset, scale: ExperimentScale) -> MiningContext {
    let groups = enumerate_groups(dataset, scale);
    MiningContext::build(
        dataset,
        groups,
        SummarizerChoice::Lda(tagdm_topics::lda::LdaConfig {
            iterations: if scale == ExperimentScale::Small {
                60
            } else {
                120
            },
            burn_in: if scale == ExperimentScale::Small {
                20
            } else {
                40
            },
            ..tagdm_topics::lda::LdaConfig::with_topics(scale.num_topics())
        }),
    )
}

/// Enumerate the candidate describable groups for a dataset at a scale.
pub fn enumerate_groups(dataset: &Dataset, scale: ExperimentScale) -> Vec<TaggingActionGroup> {
    GroupingScheme::over(dataset, &scale.grouping_attributes())
        .expect("grouping attributes exist in the MovieLens-style schemas")
        .min_group_size(scale.min_group_size())
        .enumerate(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workload_builds_with_enough_groups() {
        let workload = Workload::build(ExperimentScale::Small);
        assert!(workload.num_groups() >= 10, "got {}", workload.num_groups());
        assert_eq!(workload.context.signature_dims(), 10);
        assert_eq!(workload.params.k, 3);
        assert!(workload.params.min_support >= 1);
        assert_eq!(workload.scale.name(), "small");
    }

    #[test]
    fn scale_from_env_defaults_to_medium() {
        // Note: this does not set the variable to avoid interfering with other tests.
        let scale = ExperimentScale::from_env();
        assert!(matches!(
            scale,
            ExperimentScale::Small | ExperimentScale::Medium | ExperimentScale::Paper
        ));
    }

    #[test]
    fn grouping_attributes_are_valid_for_the_generated_schema() {
        for scale in [ExperimentScale::Small, ExperimentScale::Medium] {
            let dataset = MovieLensStyleGenerator::new(scale.generator_config()).generate();
            let groups = enumerate_groups(&dataset, scale);
            assert!(!groups.is_empty());
            assert!(groups.iter().all(|g| g.len() >= scale.min_group_size()));
        }
    }
}
