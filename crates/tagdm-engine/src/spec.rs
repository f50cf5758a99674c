//! Context specifications and the placement keys derived from them.
//!
//! A [`ContextSpec`] is the serializable recipe for a [`MiningContext`]: which
//! registered dataset to read, how to enumerate candidate groups and which tag
//! summarizer to run. The engine caches contexts by the spec's own fields (floats by
//! their bits) plus the generation of the registration it resolved against, so the
//! expensive LDA / signature work runs once per distinct recipe, and a dataset or
//! installed context replaced under the same name never serves entries cached for the
//! old data. [`ContextKey`] is the spec rendered as a string; it serves only placement
//! (the cluster ring's shard choice), not the engine's caches.
//!
//! [`MiningContext`]: tagdm_core::context::MiningContext

use serde::{Deserialize, Serialize};

use tagdm_core::context::SummarizerChoice;

/// The recipe for obtaining a mining context from the engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContextSpec {
    /// Enumerate describable groups over a registered dataset and summarize them.
    Grouped {
        /// Name the dataset was registered under.
        dataset: String,
        /// Grouping attributes as `(dimension, attribute)` pairs, e.g.
        /// `("user", "gender")`.
        grouping: Vec<(String, String)>,
        /// Minimum tagging-action tuples per candidate group.
        min_group_size: usize,
        /// The tag signature summarizer.
        summarizer: SummarizerChoice,
    },
    /// Use a pre-built context installed under an explicit name (e.g. the scaling
    /// experiment's subsampled corpus bins, which no grouping recipe can describe).
    Installed {
        /// Name the context was installed under.
        name: String,
    },
}

impl ContextSpec {
    /// A grouped spec from string-slice attribute pairs.
    pub fn grouped(
        dataset: impl Into<String>,
        grouping: &[(&str, &str)],
        min_group_size: usize,
        summarizer: SummarizerChoice,
    ) -> Self {
        ContextSpec::Grouped {
            dataset: dataset.into(),
            grouping: grouping
                .iter()
                .map(|&(dim, attr)| (dim.to_string(), attr.to_string()))
                .collect(),
            min_group_size,
            summarizer,
        }
    }

    /// A spec referring to an installed context.
    pub fn installed(name: impl Into<String>) -> Self {
        ContextSpec::Installed { name: name.into() }
    }

    /// The placement key naming the context this spec resolves to (the cluster ring
    /// hashes it to a shard). Its rendering is pinned: changing it moves placement.
    pub fn key(&self) -> ContextKey {
        match self {
            ContextSpec::Grouped {
                dataset,
                grouping,
                min_group_size,
                summarizer,
            } => {
                let attrs: Vec<String> = grouping
                    .iter()
                    .map(|(dim, attr)| format!("{dim}.{attr}"))
                    .collect();
                // `{summarizer:?}` spells out every hyper-parameter (Rust's float Debug
                // is round-trip exact), so two LDA configs differing only in, say, the
                // seed get distinct keys.
                ContextKey(format!(
                    "grouped:{dataset}|{}|min={min_group_size}|{summarizer:?}",
                    attrs.join(",")
                ))
            }
            ContextSpec::Installed { name } => ContextKey(format!("installed:{name}")),
        }
    }

    /// The dataset name a grouped spec reads from (`None` for installed contexts).
    pub fn dataset_name(&self) -> Option<&str> {
        match self {
            ContextSpec::Grouped { dataset, .. } => Some(dataset),
            ContextSpec::Installed { .. } => None,
        }
    }
}

/// A spec rendered as a string, for placement. Not injective: an attribute name
/// holding `,` or `.` can render like another spec's attributes, so nothing that must
/// tell specs apart (the engine's caches) keys on it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ContextKey(String);

impl ContextKey {
    /// The key as a string (what the cluster ring hashes).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdm_topics::lda::LdaConfig;

    #[test]
    fn equal_specs_share_a_key_and_different_specs_do_not() {
        let a = ContextSpec::grouped(
            "ml",
            &[("user", "gender"), ("item", "genre")],
            5,
            SummarizerChoice::Frequency,
        );
        let b = ContextSpec::grouped(
            "ml",
            &[("user", "gender"), ("item", "genre")],
            5,
            SummarizerChoice::Frequency,
        );
        assert_eq!(a.key(), b.key());

        let other_dataset = ContextSpec::grouped(
            "ml2",
            &[("user", "gender"), ("item", "genre")],
            5,
            SummarizerChoice::Frequency,
        );
        assert_ne!(a.key(), other_dataset.key());

        let other_grouping =
            ContextSpec::grouped("ml", &[("user", "gender")], 5, SummarizerChoice::Frequency);
        assert_ne!(a.key(), other_grouping.key());

        let other_summarizer = ContextSpec::grouped(
            "ml",
            &[("user", "gender"), ("item", "genre")],
            5,
            SummarizerChoice::TfIdf,
        );
        assert_ne!(a.key(), other_summarizer.key());
    }

    #[test]
    fn lda_hyper_parameters_are_part_of_the_key() {
        let grouping = [("user", "gender")];
        let a = ContextSpec::grouped(
            "ml",
            &grouping,
            5,
            SummarizerChoice::Lda(LdaConfig::with_topics(25)),
        );
        let b = ContextSpec::grouped(
            "ml",
            &grouping,
            5,
            SummarizerChoice::Lda(LdaConfig::with_topics(10)),
        );
        assert_ne!(a.key(), b.key());
        let mut seeded = LdaConfig::with_topics(25);
        seeded.seed ^= 1;
        let c = ContextSpec::grouped("ml", &grouping, 5, SummarizerChoice::Lda(seeded));
        assert_ne!(a.key(), c.key());
    }

    /// The cluster ring places a spec's shard by these exact strings.
    #[test]
    fn key_renderings_are_pinned() {
        let grouping = [("user", "gender"), ("item", "genre")];
        let frequency = ContextSpec::grouped("ml", &grouping, 5, SummarizerChoice::Frequency);
        assert_eq!(
            frequency.key().as_str(),
            "grouped:ml|user.gender,item.genre|min=5|Frequency"
        );
        let lda = ContextSpec::grouped(
            "ml",
            &grouping,
            5,
            SummarizerChoice::Lda(LdaConfig::with_topics(25)),
        );
        assert_eq!(
            lda.key().as_str(),
            "grouped:ml|user.gender,item.genre|min=5|Lda(LdaConfig { num_topics: 25, \
             iterations: 150, burn_in: 50, alpha: 2.0, beta: 0.01, seed: 474 })"
        );
        assert_eq!(
            ContextSpec::installed("bin-0").key().as_str(),
            "installed:bin-0"
        );
    }

    #[test]
    fn installed_specs_key_on_their_name() {
        assert_eq!(
            ContextSpec::installed("bin-0").key(),
            ContextSpec::installed("bin-0").key()
        );
        assert_ne!(
            ContextSpec::installed("bin-0").key(),
            ContextSpec::installed("bin-1").key()
        );
        assert_eq!(ContextSpec::installed("bin-0").dataset_name(), None);
    }
}
