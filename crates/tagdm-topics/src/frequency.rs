//! Frequency-based tag signatures.
//!
//! The simplest signature from Section 2.1.2: `T_rep(g) = {(t, freq(t)) | t ∈ T_1 ∪ …}`,
//! where `freq(t)` counts how many times tag `t` was used in the group. This is also the
//! signature rendered as a tag cloud in Figures 1–2 of the paper. It is appropriate when
//! the tag vocabulary is small (e.g. editor-curated tags); for long-tail folksonomies
//! the [`lda`](crate::lda) summarizer is preferable.

use crate::corpus::Corpus;
use crate::signature::TagSignature;
use crate::summarizer::GroupSummarizer;

/// Summarizes each group by its raw tag frequencies over the whole vocabulary.
#[derive(Debug, Clone, Default)]
pub struct FrequencySummarizer {
    normalize: bool,
}

impl FrequencySummarizer {
    /// A summarizer producing raw counts.
    pub fn new() -> Self {
        FrequencySummarizer { normalize: false }
    }

    /// A summarizer producing L1-normalized frequencies (a distribution over tags),
    /// which makes groups of very different sizes comparable.
    pub fn normalized() -> Self {
        FrequencySummarizer { normalize: true }
    }
}

impl GroupSummarizer for FrequencySummarizer {
    fn summarize(&self, corpus: &Corpus) -> Vec<TagSignature> {
        corpus
            .documents()
            .iter()
            .map(|doc| {
                let sig = TagSignature::from_entries(
                    corpus.num_terms(),
                    doc.iter().map(|&(t, c)| (t, f64::from(c))),
                );
                if self.normalize {
                    sig.normalized()
                } else {
                    sig
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_copied_into_signatures() {
        let corpus = Corpus::from_documents(4, vec![vec![(0, 3), (2, 1), (0, 2)]]);
        let sigs = FrequencySummarizer::new().summarize(&corpus);
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].weight(0), 5.0);
        assert_eq!(sigs[0].weight(2), 1.0);
        assert_eq!(sigs[0].weight(1), 0.0);
    }

    #[test]
    fn normalized_signatures_sum_to_one() {
        let corpus = Corpus::from_documents(4, vec![vec![(0, 3), (2, 1)], vec![(1, 8)]]);
        let sigs = FrequencySummarizer::normalized().summarize(&corpus);
        for sig in &sigs {
            assert!((sig.sum() - 1.0).abs() < 1e-12);
        }
        assert!((sigs[0].weight(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn identical_tag_usage_gives_cosine_one() {
        let corpus = Corpus::from_documents(5, vec![vec![(1, 2), (3, 4)], vec![(1, 1), (3, 2)]]);
        let sigs = FrequencySummarizer::new().summarize(&corpus);
        assert!((sigs[0].cosine_similarity(&sigs[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_document_yields_zero_signature() {
        let corpus = Corpus::from_documents(5, vec![vec![]]);
        let sigs = FrequencySummarizer::new().summarize(&corpus);
        assert!(sigs[0].is_zero());
    }
}
