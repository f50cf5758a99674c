//! Latent Dirichlet Allocation (Blei, Ng & Jordan, 2003 — reference \[3\] of the paper)
//! trained by collapsed Gibbs sampling.
//!
//! The paper's evaluation summarizes each tagging-action group's tag multiset with LDA
//! over 25 global topics and uses the inferred per-group topic distribution θ as the
//! group tag signature (Section 6, "Mining Functions"). Groups are compared only through
//! θ, so the sampler accumulates document-topic counts and nothing else. This module
//! provides:
//!
//! * [`LdaModel::train`] — collapsed Gibbs sampling over a [`Corpus`];
//! * [`LdaModel::document_topics`] — the per-document topic distributions θ (the group
//!   tag signatures);
//! * [`LdaSummarizer`] — the [`GroupSummarizer`] adapter used by the TagDM pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::corpus::{Corpus, TagBag};
use crate::signature::TagSignature;
use crate::summarizer::GroupSummarizer;

/// The most topics the sampler can store: topic assignments are kept as `u16`.
const MAX_TOPICS: usize = u16::MAX as usize + 1;

/// Hyper-parameters of the collapsed Gibbs sampler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of latent topics `K` (the paper uses 25).
    pub num_topics: usize,
    /// Total Gibbs sweeps over the corpus.
    pub iterations: usize,
    /// Sweeps discarded before θ statistics are read off. Must be `< iterations`.
    pub burn_in: usize,
    /// Symmetric Dirichlet prior on document-topic distributions.
    pub alpha: f64,
    /// Symmetric Dirichlet prior on topic-term distributions.
    pub beta: f64,
    /// RNG seed (training is deterministic given config + corpus).
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            num_topics: 25,
            iterations: 150,
            burn_in: 50,
            alpha: 50.0 / 25.0,
            beta: 0.01,
            seed: 0x1DA,
        }
    }
}

impl LdaConfig {
    /// A configuration with `num_topics` topics and `alpha = 50 / K` (the common
    /// Griffiths–Steyvers heuristic), other parameters at their defaults.
    pub fn with_topics(num_topics: usize) -> Self {
        LdaConfig {
            num_topics,
            alpha: 50.0 / num_topics.max(1) as f64,
            ..LdaConfig::default()
        }
    }

    /// Quick-and-coarse settings for unit tests.
    pub fn fast(num_topics: usize) -> Self {
        LdaConfig {
            num_topics,
            iterations: 40,
            burn_in: 10,
            alpha: 50.0 / num_topics.max(1) as f64,
            beta: 0.01,
            seed: 0x1DA,
        }
    }

    /// Check that the sampler can run: between one and 65 536 topics (assignments are
    /// stored as `u16`), a burn-in shorter than training (so at least one iteration),
    /// and positive finite Dirichlet priors.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_topics == 0 {
            return Err("LDA needs at least one topic".into());
        }
        if self.num_topics > MAX_TOPICS {
            return Err(format!("LDA supports at most {MAX_TOPICS} topics"));
        }
        if self.burn_in >= self.iterations {
            return Err("burn-in must be shorter than training".into());
        }
        let positive = |prior: f64| prior.is_finite() && prior > 0.0;
        if !(positive(self.alpha) && positive(self.beta)) {
            return Err("Dirichlet priors must be positive and finite".into());
        }
        Ok(())
    }
}

/// The per-document topic statistics of an LDA model trained by collapsed Gibbs
/// sampling: everything needed to read off θ, and nothing else.
#[derive(Debug, Clone)]
pub struct LdaModel {
    alpha: f64,
    /// Accumulated (post-burn-in) document-topic counts, row-major `[doc][topic]`.
    doc_topic: Vec<Vec<f64>>,
    /// Tokens per training document.
    doc_lengths: Vec<usize>,
}

impl LdaModel {
    /// Train a model on `corpus` by collapsed Gibbs sampling.
    ///
    /// # Panics
    ///
    /// If `config` fails [`LdaConfig::validate`].
    pub fn train(corpus: &Corpus, config: LdaConfig) -> Self {
        if let Err(message) = config.validate() {
            panic!("invalid LDA configuration: {message}");
        }
        let k = config.num_topics;
        let v = corpus.num_terms().max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Flatten documents into token streams.
        let docs: Vec<Vec<u32>> = corpus.documents().iter().map(flatten).collect();
        let doc_lengths: Vec<usize> = docs.iter().map(Vec::len).collect();

        // Current Gibbs state.
        let mut n_dk = vec![vec![0u32; k]; docs.len()];
        let mut n_kw = vec![vec![0u32; v]; k];
        let mut n_k = vec![0u32; k];
        let mut assignments: Vec<Vec<u16>> = Vec::with_capacity(docs.len());
        for (d, tokens) in docs.iter().enumerate() {
            let mut z = Vec::with_capacity(tokens.len());
            for &w in tokens {
                let topic = rng.gen_range(0..k);
                n_dk[d][topic] += 1;
                n_kw[topic][w as usize] += 1;
                n_k[topic] += 1;
                z.push(topic as u16);
            }
            assignments.push(z);
        }

        // Document-topic counts summed over the post-burn-in sweeps.
        let mut acc_dk = vec![vec![0.0f64; k]; docs.len()];
        let mut samples = 0usize;

        let v_beta = v as f64 * config.beta;
        let mut weights = vec![0.0f64; k];
        for iteration in 0..config.iterations {
            for (d, tokens) in docs.iter().enumerate() {
                for (pos, &w) in tokens.iter().enumerate() {
                    let old = assignments[d][pos] as usize;
                    n_dk[d][old] -= 1;
                    n_kw[old][w as usize] -= 1;
                    n_k[old] -= 1;

                    for t in 0..k {
                        weights[t] = (f64::from(n_dk[d][t]) + config.alpha)
                            * (f64::from(n_kw[t][w as usize]) + config.beta)
                            / (f64::from(n_k[t]) + v_beta);
                    }
                    let new = sample_index(&mut rng, &weights);

                    assignments[d][pos] = new as u16;
                    n_dk[d][new] += 1;
                    n_kw[new][w as usize] += 1;
                    n_k[new] += 1;
                }
            }
            if iteration >= config.burn_in {
                samples += 1;
                for (d, row) in n_dk.iter().enumerate() {
                    for (t, &c) in row.iter().enumerate() {
                        acc_dk[d][t] += f64::from(c);
                    }
                }
            }
        }

        let samples = samples.max(1) as f64;
        for row in &mut acc_dk {
            for c in row.iter_mut() {
                *c /= samples;
            }
        }

        LdaModel {
            alpha: config.alpha,
            doc_topic: acc_dk,
            doc_lengths,
        }
    }

    /// θ_d: the topic distribution of training document `d` (sums to 1).
    pub fn document_topics(&self, d: usize) -> Vec<f64> {
        let row = &self.doc_topic[d];
        let k = row.len() as f64;
        let len = self.doc_lengths[d] as f64;
        let denom = len + k * self.alpha;
        row.iter().map(|&c| (c + self.alpha) / denom).collect()
    }
}

/// The [`GroupSummarizer`] adapter: trains LDA on the corpus of group tag bags and
/// returns each group's θ as its tag signature (dimension = number of topics).
#[derive(Debug, Clone)]
pub struct LdaSummarizer {
    config: LdaConfig,
}

impl LdaSummarizer {
    /// Create a summarizer with the given LDA configuration.
    pub fn new(config: LdaConfig) -> Self {
        LdaSummarizer { config }
    }
}

impl GroupSummarizer for LdaSummarizer {
    fn summarize(&self, corpus: &Corpus) -> Vec<TagSignature> {
        let model = LdaModel::train(corpus, self.config);
        (0..corpus.len())
            .map(|d| TagSignature::from_dense(&model.document_topics(d)))
            .collect()
    }
}

/// Flatten a `(term, count)` bag into a token stream.
fn flatten(doc: &TagBag) -> Vec<u32> {
    let mut tokens = Vec::new();
    for &(t, c) in doc {
        for _ in 0..c {
            tokens.push(t);
        }
    }
    tokens
}

/// Sample an index proportionally to non-negative `weights`.
fn sample_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut roll = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        roll -= w;
        if roll <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corpus with two clearly separated topics: terms 0–4 co-occur, terms 5–9 co-occur.
    fn bimodal_corpus(docs_per_topic: usize) -> Corpus {
        let documents = (0..docs_per_topic)
            .flat_map(|i| {
                [
                    vec![(0, 3), (1, 2), (2, 2), ((i % 3) as u32, 1)],
                    vec![(5, 3), (6, 2), (7, 2), ((5 + i % 3) as u32, 1)],
                ]
            })
            .collect();
        Corpus::from_documents(10, documents)
    }

    #[test]
    fn theta_signatures_are_probability_distributions() {
        let corpus = bimodal_corpus(6);
        let sigs = LdaSummarizer::new(LdaConfig::fast(3)).summarize(&corpus);
        assert_eq!(sigs.len(), corpus.len());
        for sig in &sigs {
            assert_eq!(sig.dims(), 3);
            assert_eq!(sig.entries().len(), 3, "θ is dense: every topic has mass");
            assert!((sig.sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lda_separates_obvious_topics() {
        let corpus = bimodal_corpus(10);
        let model = LdaModel::train(&corpus, LdaConfig::fast(2));
        // Documents about the first theme should be more similar to each other than to
        // documents about the second theme.
        let sig = |d: usize| TagSignature::from_dense(&model.document_topics(d));
        let same = sig(0).cosine_similarity(&sig(2)); // both theme A
        let cross = sig(0).cosine_similarity(&sig(1)); // theme A vs theme B
        assert!(
            same > cross,
            "same-theme similarity {same} should exceed cross-theme {cross}"
        );
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let corpus = bimodal_corpus(4);
        let summarizer = LdaSummarizer::new(LdaConfig::fast(2));
        assert_eq!(summarizer.summarize(&corpus), summarizer.summarize(&corpus));
    }

    #[test]
    #[should_panic(expected = "burn-in must be shorter")]
    fn invalid_config_panics() {
        let corpus = bimodal_corpus(1);
        LdaModel::train(
            &corpus,
            LdaConfig {
                num_topics: 2,
                iterations: 5,
                burn_in: 5,
                alpha: 1.0,
                beta: 0.1,
                seed: 0,
            },
        );
    }

    #[test]
    fn validate_rejects_configs_the_sampler_cannot_run() {
        LdaConfig::default().validate().unwrap();
        LdaConfig::fast(4).validate().unwrap();
        LdaConfig::fast(65_536).validate().unwrap();
        let fast = LdaConfig::fast(4);
        for bad in [
            LdaConfig::fast(0),
            LdaConfig::fast(65_537),
            LdaConfig::fast(70_000),
            LdaConfig {
                iterations: 0,
                burn_in: 0,
                ..fast
            },
            LdaConfig {
                burn_in: fast.iterations,
                ..fast
            },
            LdaConfig { alpha: 0.0, ..fast },
            LdaConfig {
                beta: f64::NAN,
                ..fast
            },
            LdaConfig {
                alpha: f64::INFINITY,
                ..fast
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
