//! tf·idf weighted tag signatures (Salton & Buckley, 1988 — reference \[19\] of the paper).
//!
//! Raw term frequency is weighted by smoothed inverse document frequency, so tags that appear in almost every group (e.g. the director's name in
//! Figures 1–2) stop dominating the comparison and group-specific tags gain weight.

use crate::corpus::Corpus;
use crate::signature::TagSignature;
use crate::summarizer::GroupSummarizer;

/// Summarizes each group with tf·idf weights over the whole vocabulary.
#[derive(Debug, Clone, Copy, Default)]
pub struct TfIdfSummarizer;

impl TfIdfSummarizer {
    /// The smoothed inverse document frequency of every term:
    /// `idf(t) = ln((1 + N) / (1 + df(t))) + 1`.
    pub fn inverse_document_frequencies(corpus: &Corpus) -> Vec<f64> {
        let n = corpus.len() as f64;
        corpus
            .document_frequencies()
            .into_iter()
            .map(|df| ((1.0 + n) / (1.0 + f64::from(df))).ln() + 1.0)
            .collect()
    }
}

impl GroupSummarizer for TfIdfSummarizer {
    fn summarize(&self, corpus: &Corpus) -> Vec<TagSignature> {
        let idf = Self::inverse_document_frequencies(corpus);
        corpus
            .documents()
            .iter()
            .map(|doc| {
                // Merge duplicate term entries first, so a term's weight is its whole
                // frequency times its idf.
                let tf = TagSignature::from_entries(
                    corpus.num_terms(),
                    doc.iter().map(|&(t, c)| (t, f64::from(c))),
                );
                TagSignature::from_entries(
                    corpus.num_terms(),
                    tf.entries()
                        .iter()
                        .map(|&(t, tf)| (t, tf * idf[t as usize])),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        // Term 0 appears in every document (low idf), term 1 in two, term 2 in one.
        Corpus::from_documents(
            3,
            vec![
                vec![(0, 2), (1, 1)],
                vec![(0, 1), (1, 1), (2, 3)],
                vec![(0, 4)],
            ],
        )
    }

    #[test]
    fn idf_is_monotone_in_rarity() {
        let idf = TfIdfSummarizer::inverse_document_frequencies(&corpus());
        assert!(idf[2] > idf[1]);
        assert!(idf[1] > idf[0]);
        assert!(idf.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn rare_terms_outweigh_common_terms_with_equal_tf() {
        let corpus = Corpus::from_documents(2, vec![vec![(0, 2), (1, 2)], vec![(0, 5)]]);
        let sigs = TfIdfSummarizer.summarize(&corpus);
        // In doc 0, term 1 (unique to it) should carry more weight than term 0 (shared).
        assert!(sigs[0].weight(1) > sigs[0].weight(0));
    }

    #[test]
    fn duplicate_entries_are_merged_before_weighting() {
        let corpus = Corpus::from_documents(2, vec![vec![(1, 2), (1, 3)], vec![(0, 1)]]);
        let merged = TfIdfSummarizer.summarize(&corpus);
        let corpus2 = Corpus::from_documents(2, vec![vec![(1, 5)], vec![(0, 1)]]);
        let expected = TfIdfSummarizer.summarize(&corpus2);
        assert!((merged[0].weight(1) - expected[0].weight(1)).abs() < 1e-12);
    }
}
