//! Describable tagging-action groups, group enumeration and group support.
//!
//! A *tagging-action group* `g` is the set of tagging-action tuples that satisfy a
//! conjunctive predicate on user and/or item attributes (Section 2 of the paper). The
//! experiments build the candidate groups by taking the cartesian product of user
//! attribute values with item attribute values and keeping the non-empty combinations
//! with at least 5 tuples (Section 6, "Mining Functions"); [`GroupingScheme`] implements
//! exactly that, in a single pass over the actions rather than by materializing the
//! 40-billion-element cartesian product.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::action::ActionId;
use crate::dataset::Dataset;
use crate::entity::{ItemId, UserId};
use crate::predicate::{AtomicPredicate, ConjunctivePredicate, Dimension};
use crate::schema::AttributeId;
use crate::tag::TagId;

/// Identifier of a group within one enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupId(pub u32);

/// A describable group of tagging actions together with pre-computed per-group
/// aggregates that the dual mining functions consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggingActionGroup {
    /// Identifier of the group within its enumeration.
    pub id: GroupId,
    /// The conjunctive predicate describing the group.
    pub description: ConjunctivePredicate,
    /// The tagging actions belonging to the group (sorted by id).
    pub actions: Vec<ActionId>,
    /// Distinct users appearing in the group (sorted).
    pub users: Vec<UserId>,
    /// Distinct items tagged by the group (sorted). This is the `g.I` set used by the
    /// set-distance similarity of Section 2.1.1.
    pub items: Vec<ItemId>,
    /// Multiset of tags used in the group as `(tag, count)` pairs sorted by tag id.
    /// This is the raw input to group tag-signature generation (Section 2.1.2).
    pub tag_counts: Vec<(TagId, u32)>,
}

impl TaggingActionGroup {
    /// Build a group from a description and the ids of its member actions.
    pub fn from_actions(
        id: GroupId,
        description: ConjunctivePredicate,
        dataset: &Dataset,
        mut actions: Vec<ActionId>,
    ) -> Self {
        actions.sort();
        actions.dedup();
        let mut users: Vec<UserId> = Vec::new();
        let mut items: Vec<ItemId> = Vec::new();
        let mut tag_counts: HashMap<TagId, u32> = HashMap::new();
        for &aid in &actions {
            let action = dataset.action(aid);
            users.push(action.user);
            items.push(action.item);
            for &t in &action.tags {
                *tag_counts.entry(t).or_insert(0) += 1;
            }
        }
        users.sort();
        users.dedup();
        items.sort();
        items.dedup();
        let mut tag_counts: Vec<(TagId, u32)> = tag_counts.into_iter().collect();
        tag_counts.sort_by_key(|(t, _)| *t);
        TaggingActionGroup {
            id,
            description,
            actions,
            users,
            items,
            tag_counts,
        }
    }

    /// Materialize the group matching `predicate` over the whole dataset.
    pub fn from_predicate(id: GroupId, dataset: &Dataset, predicate: ConjunctivePredicate) -> Self {
        let actions: Vec<ActionId> = dataset
            .actions()
            .filter(|(_, a)| predicate.matches(dataset, a))
            .map(|(id, _)| id)
            .collect();
        TaggingActionGroup::from_actions(id, predicate, dataset, actions)
    }

    /// Number of tagging-action tuples in the group.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The `count` most frequent tags of the group, with counts, ties broken by tag id.
    /// This is the simple frequency-based tag signature used to render tag clouds
    /// (Figures 1–2 of the paper).
    pub fn top_tags(&self, count: usize) -> Vec<(TagId, u32)> {
        let mut sorted = self.tag_counts.clone();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted.truncate(count);
        sorted
    }
}

/// Group support (Definition 1): the number of input tagging-action tuples that belong
/// to **at least one** of the groups in `groups`.
///
/// A merge over the groups' sorted, duplicate-free `actions` lists: each step counts
/// the smallest remaining action once and moves every list that starts with it.
pub fn group_support<'a, I>(groups: I) -> usize
where
    I: IntoIterator<Item = &'a TaggingActionGroup>,
{
    // An exhausted list's head is `u64::MAX`, above every `u32` action id.
    let head = |list: &[ActionId]| list.first().map_or(u64::MAX, |a| u64::from(a.0));
    let mut lists: Vec<&[ActionId]> = groups.into_iter().map(|g| &g.actions[..]).collect();
    let mut count = 0;
    loop {
        let min = lists.iter().map(|l| head(l)).min().unwrap_or(u64::MAX);
        if min == u64::MAX {
            return count;
        }
        count += 1;
        for list in &mut lists {
            *list = &list[usize::from(head(list) == min)..];
        }
    }
}

/// Specification of how candidate groups are enumerated from a dataset.
#[derive(Debug, Clone)]
pub struct GroupingScheme {
    attributes: Vec<(Dimension, AttributeId)>,
    min_group_size: usize,
}

impl GroupingScheme {
    /// Group over every user attribute and every item attribute (the paper's cartesian
    /// product of user attribute values with item attribute values).
    pub fn all(dataset: &Dataset) -> Self {
        let mut attributes = Vec::new();
        for (id, _) in dataset.user_schema.attributes() {
            attributes.push((Dimension::User, id));
        }
        for (id, _) in dataset.item_schema.attributes() {
            attributes.push((Dimension::Item, id));
        }
        GroupingScheme {
            attributes,
            min_group_size: 1,
        }
    }

    /// Group over an explicit subset of attributes given as `(dimension, attribute name)`
    /// pairs, e.g. `[("user", "gender"), ("item", "genre")]`.
    pub fn over(
        dataset: &Dataset,
        attrs: &[(&str, &str)],
    ) -> Result<Self, crate::error::DataError> {
        let mut attributes = Vec::with_capacity(attrs.len());
        for &(dim, name) in attrs {
            if dim.eq_ignore_ascii_case("user") {
                let id = dataset
                    .user_schema
                    .attribute_id(name)
                    .ok_or_else(|| crate::error::DataError::UnknownAttribute(name.to_string()))?;
                attributes.push((Dimension::User, id));
            } else {
                let id = dataset
                    .item_schema
                    .attribute_id(name)
                    .ok_or_else(|| crate::error::DataError::UnknownAttribute(name.to_string()))?;
                attributes.push((Dimension::Item, id));
            }
        }
        Ok(GroupingScheme {
            attributes,
            min_group_size: 1,
        })
    }

    /// Keep only groups containing at least `min` tagging-action tuples. The paper's
    /// experiments use `min = 5`, which yields 4,535 candidate groups on its corpus.
    pub fn min_group_size(mut self, min: usize) -> Self {
        self.min_group_size = min.max(1);
        self
    }

    /// The attributes this scheme groups by.
    pub fn attributes(&self) -> &[(Dimension, AttributeId)] {
        &self.attributes
    }

    /// Enumerate the non-empty describable groups. Runs in `O(|G| · |attributes|)`:
    /// each action contributes to exactly one full-description group.
    pub fn enumerate(&self, dataset: &Dataset) -> Vec<TaggingActionGroup> {
        let mut buckets: HashMap<Vec<u32>, Vec<ActionId>> = HashMap::new();
        for (aid, action) in dataset.actions() {
            let key: Vec<u32> = self
                .attributes
                .iter()
                .map(|&(dim, attr)| match dim {
                    Dimension::User => dataset.user(action.user).value(attr).0,
                    Dimension::Item => dataset.item(action.item).value(attr).0,
                })
                .collect();
            buckets.entry(key).or_default().push(aid);
        }

        let mut keys: Vec<Vec<u32>> = buckets
            .iter()
            .filter(|(_, actions)| actions.len() >= self.min_group_size)
            .map(|(k, _)| k.clone())
            .collect();
        // Deterministic group ids regardless of hash map iteration order.
        keys.sort();

        let mut groups = Vec::with_capacity(keys.len());
        for (idx, key) in keys.iter().enumerate() {
            let actions = buckets.remove(key).expect("key came from the map");
            let conditions: Vec<AtomicPredicate> = self
                .attributes
                .iter()
                .zip(key.iter())
                .map(|(&(dim, attr), &value)| AtomicPredicate {
                    dimension: dim,
                    attribute: attr,
                    value: crate::schema::ValueId(value),
                })
                .collect();
            groups.push(TaggingActionGroup::from_actions(
                GroupId(idx as u32),
                ConjunctivePredicate::new(conditions),
                dataset,
                actions,
            ));
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::movielens_style();
        let users = [
            [
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ],
            [
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ca"),
            ],
            [
                ("gender", "female"),
                ("age", "35-44"),
                ("occupation", "artist"),
                ("state", "ca"),
            ],
        ]
        .map(|pairs| b.add_user(pairs).unwrap());
        let items = [
            [("genre", "comedy"), ("actor", "a"), ("director", "x")],
            [("genre", "war"), ("actor", "b"), ("director", "spielberg")],
        ]
        .map(|pairs| b.add_item(pairs).unwrap());

        b.add_action_str(users[0], items[0], &["funny", "light"], None)
            .unwrap();
        b.add_action_str(users[1], items[0], &["funny"], None)
            .unwrap();
        b.add_action_str(users[0], items[1], &["gritty", "war"], None)
            .unwrap();
        b.add_action_str(users[2], items[1], &["moving"], None)
            .unwrap();
        b.add_action_str(users[2], items[0], &["light"], None)
            .unwrap();
        b.build()
    }

    #[test]
    fn enumerate_over_subset_groups_by_key() {
        let ds = dataset();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .enumerate(&ds);
        // keys: (male, comedy) x2, (male, war) x1, (female, war) x1, (female, comedy) x1
        assert_eq!(groups.len(), 4);
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), ds.num_actions());
        let max = groups.iter().map(|g| g.len()).max().unwrap();
        assert_eq!(max, 2);
    }

    #[test]
    fn min_group_size_filters_small_groups() {
        let ds = dataset();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .min_group_size(2)
            .enumerate(&ds);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn group_aggregates_are_consistent() {
        let ds = dataset();
        let groups = GroupingScheme::all(&ds).enumerate(&ds);
        for g in &groups {
            assert!(!g.is_empty());
            assert!(g.users.len() <= g.len());
            assert!(g.items.len() <= g.len());
            assert_eq!(
                g.tag_counts.iter().map(|&(_, c)| c as usize).sum::<usize>(),
                g.actions
                    .iter()
                    .map(|&a| ds.action(a).tags.len())
                    .sum::<usize>()
            );
            for &aid in &g.actions {
                assert!(g.actions.binary_search(&aid).is_ok());
                assert!(g.description.matches(&ds, ds.action(aid)));
            }
        }
    }

    #[test]
    fn group_support_counts_union_of_actions() {
        let ds = dataset();
        let groups = GroupingScheme::over(&ds, &[("user", "gender")])
            .unwrap()
            .enumerate(&ds);
        assert_eq!(groups.len(), 2);
        // The two gender groups partition all actions.
        assert_eq!(group_support(groups.iter()), ds.num_actions());
        // A single group supports only its own tuples.
        assert_eq!(group_support(std::iter::once(&groups[0])), groups[0].len());
        // Overlapping copies do not double count.
        assert_eq!(group_support(vec![&groups[0], &groups[0]]), groups[0].len());
    }

    #[test]
    fn group_support_merges_duplicate_overlapping_and_empty_sets() {
        let ds = dataset();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .enumerate(&ds);
        let everyone =
            TaggingActionGroup::from_predicate(GroupId(9), &ds, ConjunctivePredicate::trivial());
        // The empty set supports nothing.
        assert_eq!(group_support(std::iter::empty()), 0);
        // Duplicate groups count their tuples once, however often they repeat.
        let triple = [&groups[1], &groups[1], &groups[1]];
        assert_eq!(group_support(triple), groups[1].len());
        // Overlapping groups count the union: every group lies inside `everyone`.
        for g in &groups {
            assert_eq!(group_support([g, &everyone]), ds.num_actions());
            assert_eq!(group_support([&everyone, g, g]), ds.num_actions());
        }
        // Disjoint groups add up; interleaved action ids merge in any order.
        let (a, b) = (&groups[0], &groups[groups.len() - 1]);
        assert_eq!(group_support([a, b]), a.len() + b.len());
        assert_eq!(group_support([b, a]), a.len() + b.len());
        // An empty group contributes nothing.
        let mut empty = groups[0].clone();
        empty.actions.clear();
        assert_eq!(group_support([&empty, b]), b.len());
    }

    #[test]
    fn from_predicate_matches_manual_filter() {
        let ds = dataset();
        let pred = ConjunctivePredicate::parse(&ds, &[("item", "genre", "war")]).unwrap();
        let group = TaggingActionGroup::from_predicate(GroupId(0), &ds, pred.clone());
        let expected: Vec<ActionId> = ds
            .actions()
            .filter(|(_, a)| pred.matches(&ds, a))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(group.actions, expected);
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn top_tags_orders_by_frequency() {
        let ds = dataset();
        let pred = ConjunctivePredicate::trivial();
        let group = TaggingActionGroup::from_predicate(GroupId(0), &ds, pred);
        let top = group.top_tags(2);
        assert_eq!(top.len(), 2);
        // "funny" and "light" both appear twice; everything else once.
        assert!(top.iter().all(|(_, c)| *c == 2));
        // Requesting more tags than exist returns all of them.
        assert_eq!(group.top_tags(100).len(), group.tag_counts.len());
    }

    #[test]
    fn enumeration_is_deterministic() {
        let ds = dataset();
        let a = GroupingScheme::all(&ds).enumerate(&ds);
        let b = GroupingScheme::all(&ds).enumerate(&ds);
        assert_eq!(a, b);
    }
}
