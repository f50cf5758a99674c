//! Conjunctive predicates over user/item attributes.
//!
//! The paper adopts the view (following the MRI work of Das et al., 2011) that groups of
//! tagging actions are meaningful to end-users when they are *structurally describable*:
//! the members share common `(attribute, value)` pairs, i.e. the group corresponds to a
//! conjunctive predicate on user and/or item attributes such as
//! `{gender = male, state = new york}` or `{genre = comedy, director = woody allen}`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::action::TaggingAction;
use crate::dataset::Dataset;
use crate::schema::{AttributeId, Schema, ValueId};

/// Which side of a tagging action an atomic predicate constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dimension {
    /// Constrain the tagging user's attributes.
    User,
    /// Constrain the tagged item's attributes.
    Item,
}

/// One `attribute = value` condition on either the user or the item side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AtomicPredicate {
    /// User or item side.
    pub dimension: Dimension,
    /// Which attribute (index into the corresponding schema).
    pub attribute: AttributeId,
    /// Required value of that attribute.
    pub value: ValueId,
}

impl AtomicPredicate {
    /// An `attribute = value` condition on the user side.
    pub fn user(attribute: AttributeId, value: ValueId) -> Self {
        AtomicPredicate {
            dimension: Dimension::User,
            attribute,
            value,
        }
    }

    /// An `attribute = value` condition on the item side.
    pub fn item(attribute: AttributeId, value: ValueId) -> Self {
        AtomicPredicate {
            dimension: Dimension::Item,
            attribute,
            value,
        }
    }

    /// Whether `action` (in `dataset`) satisfies this condition.
    pub fn matches(&self, dataset: &Dataset, action: &TaggingAction) -> bool {
        match self.dimension {
            Dimension::User => dataset.user(action.user).value(self.attribute) == self.value,
            Dimension::Item => dataset.item(action.item).value(self.attribute) == self.value,
        }
    }

    /// Human-readable form, e.g. `user.gender=male`.
    pub fn describe(&self, user_schema: &Schema, item_schema: &Schema) -> String {
        let (prefix, schema) = match self.dimension {
            Dimension::User => ("user", user_schema),
            Dimension::Item => ("item", item_schema),
        };
        let attr = schema.attribute(self.attribute);
        format!(
            "{prefix}.{}={}",
            attr.name(),
            attr.value_name(self.value).unwrap_or("<unknown>")
        )
    }
}

/// A conjunction of [`AtomicPredicate`]s: the *description* of a describable group.
///
/// The conditions are kept sorted so that two predicates with the same conditions in a
/// different insertion order compare (and hash) equal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConjunctivePredicate {
    conditions: Vec<AtomicPredicate>,
}

impl ConjunctivePredicate {
    /// The empty (always-true) predicate.
    pub fn trivial() -> Self {
        ConjunctivePredicate::default()
    }

    /// Build a predicate from conditions (deduplicated and sorted).
    pub fn new(mut conditions: Vec<AtomicPredicate>) -> Self {
        conditions.sort();
        conditions.dedup();
        ConjunctivePredicate { conditions }
    }

    /// Parse human-friendly `(dimension, attribute, value)` triples against the dataset
    /// schemas. Example: `[("user", "gender", "male"), ("item", "genre", "war")]`.
    pub fn parse(
        dataset: &Dataset,
        triples: &[(&str, &str, &str)],
    ) -> Result<Self, crate::error::DataError> {
        let mut conditions = Vec::with_capacity(triples.len());
        for &(dim, attr, value) in triples {
            let (dimension, schema) = if dim.eq_ignore_ascii_case("user") {
                (Dimension::User, &dataset.user_schema)
            } else {
                (Dimension::Item, &dataset.item_schema)
            };
            let (attribute, value) = schema.resolve(attr, value)?;
            conditions.push(AtomicPredicate {
                dimension,
                attribute,
                value,
            });
        }
        Ok(ConjunctivePredicate::new(conditions))
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.conditions.len()
    }

    /// Whether this is the trivial (always-true) predicate.
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }

    /// The conjuncts, sorted.
    pub fn conditions(&self) -> &[AtomicPredicate] {
        &self.conditions
    }

    /// Add a conjunct, keeping the canonical order.
    pub fn and(&self, extra: AtomicPredicate) -> Self {
        let mut conditions = self.conditions.clone();
        conditions.push(extra);
        ConjunctivePredicate::new(conditions)
    }

    /// Whether `action` satisfies every conjunct.
    pub fn matches(&self, dataset: &Dataset, action: &TaggingAction) -> bool {
        self.conditions.iter().all(|c| c.matches(dataset, action))
    }

    /// The value required for a given `(dimension, attribute)`, if constrained.
    pub fn value_for(&self, dimension: Dimension, attribute: AttributeId) -> Option<ValueId> {
        self.conditions
            .iter()
            .find(|c| c.dimension == dimension && c.attribute == attribute)
            .map(|c| c.value)
    }

    /// Human-readable description such as
    /// `{user.gender=male, item.genre=comedy}`.
    pub fn describe(&self, user_schema: &Schema, item_schema: &Schema) -> String {
        let parts: Vec<String> = self
            .conditions
            .iter()
            .map(|c| c.describe(user_schema, item_schema))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for ConjunctivePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} conditions>", self.conditions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::movielens_style();
        let u0 = b
            .add_user([
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ])
            .unwrap();
        let u1 = b
            .add_user([
                ("gender", "female"),
                ("age", "35-44"),
                ("occupation", "artist"),
                ("state", "ca"),
            ])
            .unwrap();
        let i0 = b
            .add_item([("genre", "comedy"), ("actor", "a"), ("director", "x")])
            .unwrap();
        let i1 = b
            .add_item([("genre", "war"), ("actor", "b"), ("director", "spielberg")])
            .unwrap();
        b.add_action_str(u0, i0, &["funny"], None).unwrap();
        b.add_action_str(u1, i1, &["intense"], None).unwrap();
        b.add_action_str(u0, i1, &["gritty"], None).unwrap();
        b.build()
    }

    #[test]
    fn atomic_predicate_matches_correct_side() {
        let ds = dataset();
        let pred = ConjunctivePredicate::parse(&ds, &[("user", "gender", "male")]).unwrap();
        let matches: Vec<bool> = ds.actions().map(|(_, a)| pred.matches(&ds, a)).collect();
        assert_eq!(matches, vec![true, false, true]);
    }

    #[test]
    fn conjunction_requires_all_conditions() {
        let ds = dataset();
        let pred = ConjunctivePredicate::parse(
            &ds,
            &[
                ("user", "gender", "male"),
                ("item", "director", "spielberg"),
            ],
        )
        .unwrap();
        let matching: usize = ds.actions().filter(|(_, a)| pred.matches(&ds, a)).count();
        assert_eq!(matching, 1);
    }

    #[test]
    fn predicates_are_order_insensitive() {
        let ds = dataset();
        let p1 = ConjunctivePredicate::parse(
            &ds,
            &[("user", "gender", "male"), ("item", "genre", "war")],
        )
        .unwrap();
        let p2 = ConjunctivePredicate::parse(
            &ds,
            &[("item", "genre", "war"), ("user", "gender", "male")],
        )
        .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn trivial_predicate_matches_everything() {
        let ds = dataset();
        let pred = ConjunctivePredicate::trivial();
        assert!(ds.actions().all(|(_, a)| pred.matches(&ds, a)));
        assert!(pred.is_empty());
    }

    #[test]
    fn describe_is_human_readable() {
        let ds = dataset();
        let pred = ConjunctivePredicate::parse(
            &ds,
            &[("user", "gender", "male"), ("item", "genre", "war")],
        )
        .unwrap();
        let s = pred.describe(&ds.user_schema, &ds.item_schema);
        assert!(s.contains("user.gender=male"));
        assert!(s.contains("item.genre=war"));
    }

    #[test]
    fn value_for_returns_constrained_values_only() {
        let ds = dataset();
        let pred = ConjunctivePredicate::parse(&ds, &[("user", "gender", "male")]).unwrap();
        let gender = ds.user_schema.attribute_id("gender").unwrap();
        let age = ds.user_schema.attribute_id("age").unwrap();
        assert!(pred.value_for(Dimension::User, gender).is_some());
        assert!(pred.value_for(Dimension::User, age).is_none());
        assert!(pred.value_for(Dimension::Item, gender).is_none());
    }

    #[test]
    fn and_adds_conditions_canonically() {
        let ds = dataset();
        let gender = ds.user_schema.attribute_id("gender").unwrap();
        let male = ds.user_schema.attribute(gender).value_id("male").unwrap();
        let genre = ds.item_schema.attribute_id("genre").unwrap();
        let war = ds.item_schema.attribute(genre).value_id("war").unwrap();

        let a = ConjunctivePredicate::trivial()
            .and(AtomicPredicate::user(gender, male))
            .and(AtomicPredicate::item(genre, war));
        let b = ConjunctivePredicate::trivial()
            .and(AtomicPredicate::item(genre, war))
            .and(AtomicPredicate::user(gender, male));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // Adding a duplicate conjunct does not grow the predicate.
        assert_eq!(a.and(AtomicPredicate::user(gender, male)).len(), 2);
    }
}
