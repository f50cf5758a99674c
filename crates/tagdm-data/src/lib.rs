//! # tagdm-data
//!
//! Data model substrate for the **TagDM** framework ("Who Tags What? An Analysis
//! Framework", Das et al., PVLDB 2012).
//!
//! The paper models a social tagging site as a triple ⟨U, I, T⟩ of users, items and a
//! tag vocabulary. Every tagging action is itself a triple ⟨u, i, T⟩ with `T ⊂ 𝒯`, and
//! each action expands into a tuple concatenating the user's attribute values, the
//! item's attribute values and the tags (Section 2 of the paper). This crate provides:
//!
//! * [`schema`] — attribute schemas for users and items with interned attribute values;
//! * [`entity`] — users and items conforming to those schemas;
//! * [`tag`] — the tag vocabulary with interned tag identifiers;
//! * [`action`] — tagging actions and expanded tagging-action tuples;
//! * [`dataset`] — the full corpus ⟨U, I, 𝒯, G⟩ plus builders and summary statistics;
//! * [`predicate`] — conjunctive (attribute, value) predicates describing groups;
//! * [`group`] — *describable* tagging-action groups, group enumeration and
//!   [group support](group::group_support) (Definition 1 of the paper);
//! * [`query`] — predicate-based corpus filtering and size-binning used by the
//!   scalability experiments (Figures 7–8);
//! * [`generator`] — a seeded synthetic MovieLens-style corpus generator that stands in
//!   for the MovieLens 1M/10M ⨝ IMDB dataset of Section 6 (see `DESIGN.md` for the
//!   substitution rationale);
//! * [`io`] — JSON (de)serialization of datasets so experiment inputs are inspectable.
//!
//! ## Quick example
//!
//! ```
//! use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
//! use tagdm_data::group::GroupingScheme;
//!
//! let config = GeneratorConfig::small();
//! let dataset = MovieLensStyleGenerator::new(config).generate();
//! assert!(dataset.num_actions() > 0);
//!
//! // Enumerate describable groups over every user and item attribute, keeping groups
//! // that contain at least 5 tagging-action tuples (the paper's experimental setting).
//! let groups = GroupingScheme::all(&dataset).min_group_size(5).enumerate(&dataset);
//! assert!(!groups.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod dataset;
pub mod entity;
pub mod error;
pub mod generator;
pub mod group;
pub mod io;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod tag;

pub use action::{ActionId, TaggingAction};
pub use dataset::{Dataset, DatasetBuilder, DatasetStats};
pub use entity::{Item, ItemId, User, UserId};
pub use error::DataError;
pub use group::{GroupId, GroupingScheme, TaggingActionGroup};
pub use predicate::{AtomicPredicate, ConjunctivePredicate, Dimension};
pub use schema::{AttributeId, Schema, ValueId};
pub use tag::{TagId, TagVocabulary};
