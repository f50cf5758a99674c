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
//!
//! # Sampler layout
//!
//! Training is nearly all of a context build, so the sampler's state is flat: every
//! document's tokens and topic assignments sit in one stream with per-document
//! offsets, document-topic counts are one `docs × k` array, and topic-term counts are
//! word-major (`n_wk[w * k + t]`), so one token's `k` counts are adjacent. Each topic's
//! `n_k + vβ` is kept and rewritten only for the two topics a token leaves and joins.
//! Every weight is still `(n_dk + α) · (n_wk + β) / (n_k + vβ)` in that order, and
//! `sample_index` sums and scans sequentially, so every draw and every θ float equals
//! that of the same sampler over nested `n_dk[d][t]` and topic-major `n_kw[t][w]`.
//! `tagdm-core`'s `signature_digests.rs` pins the benchmark contexts' θ bits, and a
//! proptest here checks θ bit for bit against that nested sampler, kept as a test
//! oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::corpus::Corpus;
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
    /// and positive finite Dirichlet priors small enough that no weight or θ entry
    /// overflows.
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
        // Counts are `u32` and term ids `u32`, so these bound, for any corpus, θ's
        // denominator `len + kα` and the sum of a token's weights (each weight is at
        // most `n_dk + α`), a weight's numerator `(n_dk + α)(n_wk + β)`, and its
        // denominator `n_k + vβ`.
        let count = f64::from(u32::MAX);
        let bounds = [
            self.num_topics as f64 * (count + self.alpha),
            (count + self.alpha) * (count + self.beta),
            count + (count + 1.0) * self.beta,
        ];
        if !bounds.iter().all(|bound| bound.is_finite()) {
            return Err(
                "Dirichlet priors are too large: the sampler's arithmetic overflows".into(),
            );
        }
        Ok(())
    }
}

/// The per-document topic statistics of an LDA model trained by collapsed Gibbs
/// sampling: everything needed to read off θ, and nothing else.
#[derive(Debug, Clone)]
pub struct LdaModel {
    alpha: f64,
    num_topics: usize,
    /// Accumulated (post-burn-in) document-topic counts, `docs × k` row-major.
    doc_topic: Vec<f64>,
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

        // Every document's tokens in one stream; document `d` is
        // `tokens[offsets[d]..offsets[d + 1]]`.
        let mut tokens = Vec::new();
        let mut offsets = vec![0];
        for doc in corpus.documents() {
            for &(t, c) in doc {
                tokens.extend(std::iter::repeat_n(t, c as usize));
            }
            offsets.push(tokens.len());
        }
        let num_docs = corpus.len();

        // Current Gibbs state: `n_dk[d * k + t]`, word-major `n_wk[w * k + t]`, and one
        // topic per token.
        let mut n_dk = vec![0u32; num_docs * k];
        let mut n_wk = vec![0u32; v * k];
        let mut n_k = vec![0u32; k];
        let mut assignments = Vec::with_capacity(tokens.len());
        for d in 0..num_docs {
            for &w in &tokens[offsets[d]..offsets[d + 1]] {
                let topic = rng.gen_range(0..k);
                n_dk[d * k + topic] += 1;
                n_wk[w as usize * k + topic] += 1;
                n_k[topic] += 1;
                assignments.push(topic as u16);
            }
        }

        // Document-topic counts summed over the post-burn-in sweeps.
        let mut acc_dk = vec![0.0f64; num_docs * k];
        let mut samples = 0usize;

        let v_beta = v as f64 * config.beta;
        // `denom[t]` is always `f64::from(n_k[t]) + v_beta`: a token changes two entries.
        let mut denom: Vec<f64> = n_k.iter().map(|&n| f64::from(n) + v_beta).collect();
        let mut weights = vec![0.0f64; k];
        for iteration in 0..config.iterations {
            for (d, doc_counts) in n_dk.chunks_exact_mut(k).enumerate() {
                for pos in offsets[d]..offsets[d + 1] {
                    let w = tokens[pos] as usize;
                    let word_counts = &mut n_wk[w * k..(w + 1) * k];
                    let old = usize::from(assignments[pos]);
                    doc_counts[old] -= 1;
                    word_counts[old] -= 1;
                    n_k[old] -= 1;
                    denom[old] = f64::from(n_k[old]) + v_beta;

                    for (((weight, &dc), &wc), &den) in weights
                        .iter_mut()
                        .zip(&*doc_counts)
                        .zip(&*word_counts)
                        .zip(&denom)
                    {
                        *weight =
                            (f64::from(dc) + config.alpha) * (f64::from(wc) + config.beta) / den;
                    }
                    let new = sample_index(&mut rng, &weights);

                    assignments[pos] = new as u16;
                    doc_counts[new] += 1;
                    word_counts[new] += 1;
                    n_k[new] += 1;
                    denom[new] = f64::from(n_k[new]) + v_beta;
                }
            }
            if iteration >= config.burn_in {
                samples += 1;
                for (acc, &c) in acc_dk.iter_mut().zip(&n_dk) {
                    *acc += f64::from(c);
                }
            }
        }

        let samples = samples.max(1) as f64;
        for c in &mut acc_dk {
            *c /= samples;
        }

        LdaModel {
            alpha: config.alpha,
            num_topics: k,
            doc_topic: acc_dk,
            doc_lengths: offsets.windows(2).map(|o| o[1] - o[0]).collect(),
        }
    }

    /// θ_d: the topic distribution of training document `d` (sums to 1).
    pub fn document_topics(&self, d: usize) -> Vec<f64> {
        let k = self.num_topics;
        let row = &self.doc_topic[d * k..(d + 1) * k];
        let len = self.doc_lengths[d] as f64;
        let denom = len + k as f64 * self.alpha;
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
    use crate::corpus::TagBag;
    use proptest::collection;
    use proptest::prelude::*;

    /// The oracle of the flat sampler: the same Gibbs sampler over nested state,
    /// `n_dk[d][t]`, topic-major `n_kw[t][w]` and one token stream per document.
    /// Returns every document's θ, `(c + α) / (len + kα)` per topic.
    fn reference_theta(corpus: &Corpus, config: LdaConfig) -> Vec<Vec<f64>> {
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

        acc_dk
            .iter()
            .zip(&doc_lengths)
            .map(|(row, &len)| {
                let k = row.len() as f64;
                let denom = len as f64 + k * config.alpha;
                row.iter().map(|&c| (c + config.alpha) / denom).collect()
            })
            .collect()
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

    /// A random corpus: up to 12 documents of up to 6 `(term, count)` pairs over a
    /// vocabulary of up to 9 terms. Empty documents, an empty corpus, `num_terms = 0`
    /// and terms no document uses all occur.
    fn corpus_strategy() -> impl Strategy<Value = Corpus> {
        (0usize..10).prop_flat_map(|num_terms| {
            let pair = (0u32..num_terms.max(1) as u32, 1u32..5);
            collection::vec(collection::vec(pair, 0usize..7), 0usize..13)
                .prop_map(move |documents| Corpus::from_documents(num_terms, documents))
        })
    }

    /// A valid configuration: `k ∈ {1, 2, 3, 25, 40}`, 1–8 iterations with a shorter
    /// burn-in, and random positive priors and seed.
    fn config_strategy() -> impl Strategy<Value = LdaConfig> {
        (
            0usize..5,
            1usize..9,
            0usize..8,
            0.001f64..5.0,
            0.001f64..2.0,
            any::<u64>(),
        )
            .prop_map(
                |(topics, iterations, burn_in, alpha, beta, seed)| LdaConfig {
                    num_topics: [1, 2, 3, 25, 40][topics],
                    iterations,
                    burn_in: burn_in % iterations,
                    alpha,
                    beta,
                    seed,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_flat_sampler_matches_the_nested_reference(
            corpus in corpus_strategy(),
            config in config_strategy(),
        ) {
            let model = LdaModel::train(&corpus, config);
            let reference = reference_theta(&corpus, config);
            prop_assert_eq!(reference.len(), corpus.len());
            let bits = |theta: &[f64]| theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (d, expected) in reference.iter().enumerate() {
                prop_assert_eq!(bits(&model.document_topics(d)), bits(expected), "document {}", d);
            }
        }
    }

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
        LdaConfig {
            alpha: 1e200,
            ..LdaConfig::fast(65_536)
        }
        .validate()
        .unwrap();
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
            LdaConfig {
                alpha: 1e308,
                ..fast
            },
            LdaConfig {
                beta: 1e308,
                ..fast
            },
            // Each prior alone is fine; their product overflows a weight's numerator.
            LdaConfig {
                alpha: 1e200,
                beta: 1e200,
                ..LdaConfig::fast(1)
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
