//! Bags of terms and corpora: the input representation shared by every summarizer.

use serde::{Deserialize, Serialize};

/// A bag of terms: `(term id, count)` pairs describing how often each tag was used in a
/// group of tagging actions. Order does not matter; duplicate term ids are allowed and
/// are summed by consumers.
pub type TagBag = Vec<(u32, u32)>;

/// A corpus of term bags over a shared vocabulary of `num_terms` terms.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    num_terms: usize,
    documents: Vec<TagBag>,
}

impl Corpus {
    /// Create a corpus over a vocabulary of `num_terms` terms. Out-of-vocabulary terms
    /// and zero counts are dropped.
    pub fn from_documents(num_terms: usize, documents: Vec<TagBag>) -> Self {
        let documents = documents
            .into_iter()
            .map(|doc| {
                doc.into_iter()
                    .filter(|(t, c)| (*t as usize) < num_terms && *c > 0)
                    .collect()
            })
            .collect();
        Corpus {
            num_terms,
            documents,
        }
    }

    /// Vocabulary size.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The documents.
    pub fn documents(&self) -> &[TagBag] {
        &self.documents
    }

    /// Number of documents containing each term (document frequency), used by tf·idf.
    pub fn document_frequencies(&self) -> Vec<u32> {
        let mut df = vec![0u32; self.num_terms];
        for doc in &self.documents {
            let mut seen = std::collections::HashSet::new();
            for &(t, c) in doc {
                if c > 0 && seen.insert(t) {
                    df[t as usize] += 1;
                }
            }
        }
        df
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_documents_filters_out_of_vocabulary_terms() {
        let corpus = Corpus::from_documents(5, vec![vec![(0, 2), (4, 1), (9, 3), (2, 0)]]);
        assert_eq!(corpus.documents(), &[vec![(0, 2), (4, 1)]]);
        assert_eq!(corpus.len(), 1);
        assert!(!corpus.is_empty());
        assert_eq!(corpus.num_terms(), 5);
    }

    #[test]
    fn document_frequencies_count_documents_not_tokens() {
        let corpus = Corpus::from_documents(
            4,
            vec![
                vec![(0, 5), (1, 1)],
                vec![(0, 1)],
                vec![(1, 2), (1, 3), (3, 1)],
            ],
        );
        assert_eq!(corpus.document_frequencies(), vec![2, 2, 0, 1]);
    }
}
