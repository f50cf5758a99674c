//! # tagdm-topics
//!
//! Tag summarization substrate for the TagDM framework (Section 2.1.2 of "Who Tags
//! What? An Analysis Framework", Das et al., PVLDB 2012).
//!
//! The tag dimension differs from the user/item dimensions: there is no schema, the
//! vocabulary is huge and long-tailed, and different tags express the same meaning. The
//! paper therefore compares groups of tagging actions through **group tag signatures**:
//! each group's tag multiset is first summarized into a weighted vector over a global
//! set of topic categories, and signatures are then compared with ordinary vector
//! measures (cosine similarity in the paper's experiments).
//!
//! This crate provides the pieces needed for that pipeline, independent of any
//! particular data model (documents are just bags of `u32` term ids):
//!
//! * [`signature`] — sparse weighted vectors ([`TagSignature`]) with the cosine
//!   measure;
//! * [`corpus`] — bags of terms and corpora;
//! * [`frequency`] — the simple frequency signature `T_rep(g) = {(t, freq(t))}`;
//! * [`tfidf`] — tf·idf weighted signatures;
//! * [`lda`] — Latent Dirichlet Allocation trained by collapsed Gibbs sampling, the
//!   summarizer the paper uses for its evaluation (d = 25 topics); it computes the
//!   per-group topic distributions θ and nothing else;
//! * [`summarizer`] — the [`GroupSummarizer`] trait over all three: a corpus in, one
//!   signature per document out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod frequency;
pub mod lda;
pub mod signature;
pub mod summarizer;
pub mod tfidf;

pub use corpus::{Corpus, TagBag};
pub use frequency::FrequencySummarizer;
pub use lda::{LdaConfig, LdaModel};
pub use signature::TagSignature;
pub use summarizer::GroupSummarizer;
pub use tfidf::TfIdfSummarizer;
