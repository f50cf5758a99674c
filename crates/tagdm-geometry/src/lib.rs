//! # tagdm-geometry
//!
//! Computational-geometry substrate for the paper's DV-FDP family of algorithms
//! (Section 5 of "Who Tags What? An Analysis Framework", Das et al., PVLDB 2012).
//!
//! The paper maps tag-diversity maximization onto the **facility dispersion problem**
//! (FDP): given `n` points (group tag-signature vectors in a unit hypercube) and a
//! pairwise distance satisfying the triangle inequality, choose `k` points maximizing
//! the average pairwise distance (MAX-AVG). The problem is NP-hard; Ravi, Rosenkrantz
//! & Tayi's greedy heuristic gives a factor-4 approximation (Theorem 4 of the paper).
//!
//! * [`distance`] — symmetric pairwise distance matrices;
//! * [`dispersion`] — the greedy MAX-AVG heuristic, optionally with an admissibility
//!   predicate (the constraint-folding DV-FDP-Fo variant's add test).
//!
//! This crate is off the solver path. DV-FDP runs on `tagdm-core`'s per-solve pair
//! kernel and builds no matrix; `tagdm-core` uses this crate only in tests, as the
//! reference its DV-FDP outcomes must match bit for bit. Deleting the crate rewrites
//! `perfbench/Cargo.lock`, so it stays until a change that may edit the benchmark
//! package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispersion;
pub mod distance;

pub use dispersion::{max_avg_greedy, max_avg_greedy_with};
pub use distance::DistanceMatrix;
