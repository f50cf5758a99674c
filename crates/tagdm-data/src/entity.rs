//! Users and items: entities conforming to a [`Schema`].

use serde::{Deserialize, Serialize};

use crate::schema::{AttributeId, Schema, ValueId};

/// Identifier of a user inside one [`Dataset`](crate::dataset::Dataset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UserId(pub u32);

/// Identifier of an item inside one [`Dataset`](crate::dataset::Dataset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ItemId(pub u32);

/// A user: a vector of interned attribute values in user-schema order.
///
/// For example with `S_U = ⟨gender, age, occupation, state⟩` a user might be
/// `⟨male, 18-24, student, new york⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct User {
    /// The user's identifier.
    pub id: UserId,
    /// Interned attribute values, aligned with the user schema.
    pub values: Vec<ValueId>,
}

/// An item: a vector of interned attribute values in item-schema order.
///
/// For example with `S_I = ⟨genre, actor, director⟩` an item might be
/// `⟨comedy, j.aniston, woody allen⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Item {
    /// The item's identifier.
    pub id: ItemId,
    /// Interned attribute values, aligned with the item schema.
    pub values: Vec<ValueId>,
}

impl User {
    /// Value of attribute `attr` for this user.
    pub fn value(&self, attr: AttributeId) -> ValueId {
        self.values[attr.0 as usize]
    }

    /// Render the user as human-readable `(attribute, value)` pairs.
    pub fn describe(&self, schema: &Schema) -> Vec<(String, String)> {
        describe_values(&self.values, schema)
    }
}

impl Item {
    /// Value of attribute `attr` for this item.
    pub fn value(&self, attr: AttributeId) -> ValueId {
        self.values[attr.0 as usize]
    }

    /// Render the item as human-readable `(attribute, value)` pairs.
    pub fn describe(&self, schema: &Schema) -> Vec<(String, String)> {
        describe_values(&self.values, schema)
    }
}

fn describe_values(values: &[ValueId], schema: &Schema) -> Vec<(String, String)> {
    schema
        .attributes()
        .zip(values.iter())
        .map(|((_, attr), &v)| {
            (
                attr.name().to_string(),
                attr.value_name(v).unwrap_or("<unknown>").to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema_and_user() -> (Schema, User) {
        let mut schema = Schema::with_attributes(["gender", "age"]);
        let g = schema.intern_value("gender", "male").unwrap();
        let a = schema.intern_value("age", "18-24").unwrap();
        (
            schema,
            User {
                id: UserId(0),
                values: vec![g, a],
            },
        )
    }

    #[test]
    fn describe_renders_names() {
        let (schema, user) = schema_and_user();
        let described = user.describe(&schema);
        assert_eq!(
            described,
            vec![
                ("gender".to_string(), "male".to_string()),
                ("age".to_string(), "18-24".to_string())
            ]
        );
    }

    #[test]
    fn value_accessor_uses_schema_order() {
        let (schema, user) = schema_and_user();
        let age_attr = schema.attribute_id("age").unwrap();
        let age_value = user.value(age_attr);
        assert_eq!(
            schema.attribute(age_attr).value_name(age_value),
            Some("18-24")
        );
    }
}
