//! # tagdm-bench
//!
//! The experiment harness reproducing every table and figure of the evaluation section
//! of "Who Tags What? An Analysis Framework" (Das et al., PVLDB 2012).
//!
//! Each figure/table has a dedicated binary (`fig3_4_similarity`, `fig5_6_diversity`,
//! `fig7_8_scaling`, `fig9_user_study`, `fig1_2_tag_clouds`, `table1_problems`,
//! `table2_solutions`) that prints the same rows/series the paper reports and writes a
//! JSON record under `results/`. The binaries accept the experiment scale through the
//! `TAGDM_SCALE` environment variable (`small`, `medium` — the default — or `paper`).
//!
//! The modules are a library so that the tests reuse exactly the same workloads as the
//! binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod user_study;
pub mod workloads;
