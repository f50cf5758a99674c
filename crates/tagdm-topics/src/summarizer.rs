//! The common interface of group tag summarizers.

use crate::corpus::Corpus;
use crate::signature::TagSignature;

/// A group tag summarizer: turns every document (the tag multiset of one tagging-action
/// group) of a corpus into a [`TagSignature`] over a *shared* global topic space, so
/// that any two signatures can be compared with vector measures.
///
/// The paper deliberately does not prescribe one summarizer (Section 2.1.2); it lists
/// plain frequency counts, tf·idf and LDA as options and uses LDA with 25 topics in the
/// evaluation. All three are implemented in this crate behind this trait; none keeps
/// state between calls.
pub trait GroupSummarizer {
    /// Summarize every document of the corpus. The returned vector is parallel to
    /// `corpus.documents()`.
    fn summarize(&self, corpus: &Corpus) -> Vec<TagSignature>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::FrequencySummarizer;
    use crate::lda::{LdaConfig, LdaSummarizer};
    use crate::tfidf::TfIdfSummarizer;

    fn corpus() -> Corpus {
        Corpus::from_documents(
            6,
            vec![
                vec![(0, 3), (1, 1)],
                vec![(0, 2), (1, 2)],
                vec![(4, 3), (5, 2)],
            ],
        )
    }

    /// All summarizers implement the same contract: one signature per document, shared
    /// dimensionality (the vocabulary for frequency and tf·idf, the topic count for
    /// LDA), non-negative weights.
    #[test]
    fn all_summarizers_respect_the_contract() {
        let corpus = corpus();
        let summarizers: [(&str, Box<dyn GroupSummarizer>, usize); 4] = [
            ("frequency", Box::new(FrequencySummarizer::new()), 6),
            ("normalized", Box::new(FrequencySummarizer::normalized()), 6),
            ("tf-idf", Box::new(TfIdfSummarizer), 6),
            (
                "lda",
                Box::new(LdaSummarizer::new(LdaConfig {
                    num_topics: 3,
                    iterations: 30,
                    burn_in: 10,
                    alpha: 0.5,
                    beta: 0.1,
                    seed: 1,
                })),
                3,
            ),
        ];
        for (name, summarizer, dims) in &summarizers {
            let signatures = summarizer.summarize(&corpus);
            assert_eq!(signatures.len(), corpus.len(), "{name}");
            for sig in &signatures {
                assert_eq!(sig.dims(), *dims, "{name}");
                assert!(sig.entries().iter().all(|&(_, w)| w >= 0.0));
            }
        }
    }
}
