//! Latent Dirichlet Allocation (Blei, Ng & Jordan, 2003 — reference \[3\] of the paper)
//! trained by collapsed Gibbs sampling, with fold-in inference for unseen documents.
//!
//! The paper's evaluation summarizes each tagging-action group's tag multiset with LDA
//! over 25 global topics and uses the inferred per-group topic distribution as the
//! group tag signature (Section 6, "Mining Functions"). This module provides:
//!
//! * [`LdaModel::train`] — collapsed Gibbs sampling over a [`Corpus`];
//! * [`LdaModel::document_topics`] — the per-document topic distributions θ (the group
//!   tag signatures);
//! * [`LdaModel::topic_terms`] — the per-topic term distributions φ (useful for
//!   rendering topics);
//! * [`LdaModel::infer`] — fold-in Gibbs inference of θ for a document that was not part
//!   of training;
//! * [`LdaSummarizer`] — the [`GroupSummarizer`]
//!   adapter used by the TagDM pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::corpus::{Corpus, TagBag};
use crate::signature::TagSignature;
use crate::summarizer::GroupSummarizer;

/// Hyper-parameters of the collapsed Gibbs sampler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of latent topics `K` (the paper uses 25).
    pub num_topics: usize,
    /// Total Gibbs sweeps over the corpus.
    pub iterations: usize,
    /// Sweeps discarded before θ/φ statistics are read off. Must be `< iterations`.
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

    /// Check that the sampler can run: at least one topic, a burn-in shorter than
    /// training (so at least one iteration), and positive finite Dirichlet priors.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_topics == 0 {
            return Err("LDA needs at least one topic".into());
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

/// A trained LDA model.
#[derive(Debug, Clone)]
pub struct LdaModel {
    config: LdaConfig,
    num_terms: usize,
    /// Accumulated (post-burn-in) document-topic counts, row-major `[doc][topic]`.
    doc_topic: Vec<Vec<f64>>,
    /// Accumulated topic-term counts, row-major `[topic][term]`.
    topic_term: Vec<Vec<f64>>,
    /// Accumulated per-topic totals.
    topic_totals: Vec<f64>,
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

        // Accumulators for post-burn-in averaging.
        let mut acc_dk = vec![vec![0.0f64; k]; docs.len()];
        let mut acc_kw = vec![vec![0.0f64; v]; k];
        let mut acc_k = vec![0.0f64; k];
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
                for (t, row) in n_kw.iter().enumerate() {
                    for (w, &c) in row.iter().enumerate() {
                        acc_kw[t][w] += f64::from(c);
                    }
                    acc_k[t] += f64::from(n_k[t]);
                }
            }
        }

        let samples = samples.max(1) as f64;
        for row in &mut acc_dk {
            for c in row.iter_mut() {
                *c /= samples;
            }
        }
        for row in &mut acc_kw {
            for c in row.iter_mut() {
                *c /= samples;
            }
        }
        for c in &mut acc_k {
            *c /= samples;
        }

        LdaModel {
            config,
            num_terms: v,
            doc_topic: acc_dk,
            topic_term: acc_kw,
            topic_totals: acc_k,
            doc_lengths,
        }
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &LdaConfig {
        &self.config
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.config.num_topics
    }

    /// Vocabulary size `V`.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// Number of training documents.
    pub fn num_documents(&self) -> usize {
        self.doc_topic.len()
    }

    /// θ_d: the topic distribution of training document `d` (sums to 1).
    pub fn document_topics(&self, d: usize) -> Vec<f64> {
        let k = self.config.num_topics as f64;
        let len = self.doc_lengths[d] as f64;
        let denom = len + k * self.config.alpha;
        self.doc_topic[d]
            .iter()
            .map(|&c| (c + self.config.alpha) / denom)
            .collect()
    }

    /// φ_t: the term distribution of topic `t` (sums to 1).
    pub fn topic_terms(&self, t: usize) -> Vec<f64> {
        let denom = self.topic_totals[t] + self.num_terms as f64 * self.config.beta;
        self.topic_term[t]
            .iter()
            .map(|&c| (c + self.config.beta) / denom)
            .collect()
    }

    /// The `count` most probable terms of topic `t`.
    pub fn top_terms(&self, t: usize, count: usize) -> Vec<(u32, f64)> {
        let phi = self.topic_terms(t);
        let mut indexed: Vec<(u32, f64)> = phi
            .into_iter()
            .enumerate()
            .map(|(w, p)| (w as u32, p))
            .collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        indexed.truncate(count);
        indexed
    }

    /// Fold-in inference: estimate θ for an unseen document by Gibbs sampling its token
    /// assignments against the *fixed* trained topic-term distributions.
    pub fn infer(&self, doc: &TagBag, iterations: usize, seed: u64) -> Vec<f64> {
        let k = self.config.num_topics;
        let tokens = flatten(doc)
            .into_iter()
            .filter(|&w| (w as usize) < self.num_terms)
            .collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(seed);
        if tokens.is_empty() {
            return vec![1.0 / k as f64; k];
        }

        // Pre-compute φ columns for the document's terms.
        let phi: Vec<Vec<f64>> = (0..k).map(|t| self.topic_terms(t)).collect();
        let mut n_dk = vec![0u32; k];
        let mut z = Vec::with_capacity(tokens.len());
        for _ in &tokens {
            let t = rng.gen_range(0..k);
            n_dk[t] += 1;
            z.push(t);
        }
        let mut weights = vec![0.0f64; k];
        let iterations = iterations.max(1);
        let burn_in = iterations / 2;
        let mut acc = vec![0.0f64; k];
        let mut samples = 0usize;
        for iteration in 0..iterations {
            for (pos, &w) in tokens.iter().enumerate() {
                let old = z[pos];
                n_dk[old] -= 1;
                for t in 0..k {
                    weights[t] = (f64::from(n_dk[t]) + self.config.alpha) * phi[t][w as usize];
                }
                let new = sample_index(&mut rng, &weights);
                z[pos] = new;
                n_dk[new] += 1;
            }
            if iteration >= burn_in {
                samples += 1;
                for (t, &c) in n_dk.iter().enumerate() {
                    acc[t] += f64::from(c);
                }
            }
        }
        let samples = samples.max(1) as f64;
        let denom = tokens.len() as f64 + k as f64 * self.config.alpha;
        acc.iter()
            .map(|&c| (c / samples + self.config.alpha) / denom)
            .collect()
    }

    /// Per-token log-likelihood of the training corpus under the trained model; higher
    /// is better. Used to sanity-check that Gibbs sampling actually improves the fit.
    pub fn log_likelihood(&self, corpus: &Corpus) -> f64 {
        let mut ll = 0.0;
        let mut tokens = 0u64;
        let phis: Vec<Vec<f64>> = (0..self.num_topics())
            .map(|t| self.topic_terms(t))
            .collect();
        for (d, doc) in corpus.documents().iter().enumerate() {
            let theta = self.document_topics(d);
            for &(w, c) in doc {
                if (w as usize) >= self.num_terms {
                    continue;
                }
                let p: f64 = (0..self.num_topics())
                    .map(|t| theta[t] * phis[t][w as usize])
                    .sum();
                ll += f64::from(c) * p.max(1e-300).ln();
                tokens += u64::from(c);
            }
        }
        if tokens == 0 {
            0.0
        } else {
            ll / tokens as f64
        }
    }
}

/// The [`GroupSummarizer`] adapter: trains LDA on the corpus of group tag bags and
/// returns each group's θ as its tag signature (dimension = number of topics).
#[derive(Debug, Clone)]
pub struct LdaSummarizer {
    config: LdaConfig,
    model: Option<LdaModel>,
}

impl LdaSummarizer {
    /// Create a summarizer with the given LDA configuration.
    pub fn new(config: LdaConfig) -> Self {
        LdaSummarizer {
            config,
            model: None,
        }
    }

    /// The trained model, if `summarize` has been called.
    pub fn model(&self) -> Option<&LdaModel> {
        self.model.as_ref()
    }
}

impl GroupSummarizer for LdaSummarizer {
    fn signature_dims(&self, _corpus: &Corpus) -> usize {
        self.config.num_topics
    }

    fn summarize(&mut self, corpus: &Corpus) -> Vec<TagSignature> {
        let model = LdaModel::train(corpus, self.config);
        let signatures = (0..corpus.len())
            .map(|d| TagSignature::from_dense(&model.document_topics(d)))
            .collect();
        self.model = Some(model);
        signatures
    }

    fn name(&self) -> &'static str {
        "lda"
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
        let mut corpus = Corpus::new(10);
        for i in 0..docs_per_topic {
            corpus.push(vec![(0, 3), (1, 2), (2, 2), ((i % 3) as u32, 1)]);
            corpus.push(vec![(5, 3), (6, 2), (7, 2), ((5 + i % 3) as u32, 1)]);
        }
        corpus
    }

    #[test]
    fn theta_and_phi_are_probability_distributions() {
        let corpus = bimodal_corpus(6);
        let model = LdaModel::train(&corpus, LdaConfig::fast(3));
        for d in 0..model.num_documents() {
            let theta = model.document_topics(d);
            assert_eq!(theta.len(), 3);
            assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(theta.iter().all(|&p| p > 0.0));
        }
        for t in 0..model.num_topics() {
            let phi = model.topic_terms(t);
            assert_eq!(phi.len(), 10);
            assert!((phi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
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
        let a = LdaModel::train(&corpus, LdaConfig::fast(2));
        let b = LdaModel::train(&corpus, LdaConfig::fast(2));
        assert_eq!(a.document_topics(0), b.document_topics(0));
        assert_eq!(a.topic_terms(1), b.topic_terms(1));
    }

    #[test]
    fn fold_in_inference_matches_training_structure() {
        let corpus = bimodal_corpus(10);
        let model = LdaModel::train(&corpus, LdaConfig::fast(2));
        // A new document made of theme-A terms should land near theme-A training docs.
        let theta_new = model.infer(&vec![(0, 2), (1, 2), (2, 1)], 40, 7);
        assert!((theta_new.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let new_sig = TagSignature::from_dense(&theta_new);
        let train_a = TagSignature::from_dense(&model.document_topics(0));
        let train_b = TagSignature::from_dense(&model.document_topics(1));
        assert!(new_sig.cosine_similarity(&train_a) > new_sig.cosine_similarity(&train_b));
    }

    #[test]
    fn infer_on_empty_document_is_uniform() {
        let corpus = bimodal_corpus(3);
        let model = LdaModel::train(&corpus, LdaConfig::fast(4));
        let theta = model.infer(&vec![], 10, 1);
        assert!(theta.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn log_likelihood_beats_a_random_model() {
        let corpus = bimodal_corpus(8);
        let trained = LdaModel::train(&corpus, LdaConfig::fast(2));
        let barely = LdaModel::train(
            &corpus,
            LdaConfig {
                num_topics: 2,
                iterations: 2,
                burn_in: 1,
                ..LdaConfig::fast(2)
            },
        );
        assert!(trained.log_likelihood(&corpus) >= barely.log_likelihood(&corpus) - 0.05);
    }

    #[test]
    fn top_terms_reflect_topic_content() {
        let corpus = bimodal_corpus(10);
        let model = LdaModel::train(&corpus, LdaConfig::fast(2));
        // Each topic's top terms should be drawn mostly from one theme's term range.
        for t in 0..2 {
            let top: Vec<u32> = model.top_terms(t, 3).into_iter().map(|(w, _)| w).collect();
            let theme_a = top.iter().filter(|&&w| w < 5).count();
            assert!(
                theme_a == 0 || theme_a == 3,
                "topic {t} mixes themes: {top:?}"
            );
        }
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
        let fast = LdaConfig::fast(4);
        for bad in [
            LdaConfig::fast(0),
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

    #[test]
    fn summarizer_produces_topic_space_signatures() {
        let corpus = bimodal_corpus(5);
        let mut summarizer = LdaSummarizer::new(LdaConfig::fast(4));
        let sigs = summarizer.summarize(&corpus);
        assert_eq!(sigs.len(), corpus.len());
        assert!(sigs.iter().all(|s| s.dims() == 4));
        assert!(summarizer.model().is_some());
    }
}
