//! # tagdm-lsh
//!
//! Random-hyperplane (cosine) locality sensitive hashing — the substrate behind the
//! paper's SM-LSH family of algorithms (Section 4 of "Who Tags What? An Analysis
//! Framework", Das et al., PVLDB 2012).
//!
//! The scheme is Charikar's SimHash (reference \[4\] of the paper): each hash function is
//! the sign of a dot product with a random hyperplane whose entries are drawn from
//! N(0, 1). For two vectors `x`, `y` the probability of agreeing on one bit is
//! `1 − θ(x, y)/π` (Theorem 2 of the paper, following Goemans–Williamson), so vectors at
//! a small angle agree on long bit signatures with high probability and land in the
//! same bucket.
//!
//! This crate is independent of the TagDM data model: vectors are sparse
//! `(component, weight)` slices over a known dimensionality. The TagDM solvers feed it
//! group tag signature vectors, optionally concatenated with unarized attribute vectors
//! (the *folding* variant of Section 4.3).
//!
//! [`index`] holds the whole scheme. An [`LshIndex`] draws `l` seeded tables of `d′`
//! hyperplanes, hashes every item once per table into a signature packed into 64-bit
//! words, and sorts the items of each table into buckets of equal signatures. It lists
//! the buckets and re-buckets on signature prefixes (the d′ relaxation of Algorithm 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;

pub use index::{LshConfig, LshIndex};

/// A sparse vector: `(component, weight)` pairs over some dimensionality. Components
/// may appear in any order; duplicate components contribute additively to projections.
pub type SparseVector<'a> = &'a [(u32, f64)];
