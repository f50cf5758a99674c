//! Offline stand-in for the `serde` crate.
//!
//! This build environment has no access to crates.io, so the workspace vendors a
//! minimal serialization framework under the same crate name. Instead of serde's
//! generic data model, the format is fixed: [`Serialize`] writes JSON straight into
//! a [`Writer`], and [`Deserialize`] reads it straight from a [`Reader`]. Both live
//! in [`json`], the one owner of the JSON format; the companion `serde_json` shim
//! only wraps them. The derive macros (re-exported from `serde_derive`) cover the
//! shapes this workspace uses: named/tuple/unit structs and enums with unit,
//! newtype, tuple and struct variants, plus `#[serde(skip)]` fields (skipped on
//! write, `Default`-filled on read).

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

pub use json::{required, Reader, Token, Writer};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Build an error from a message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// A type that writes itself as JSON.
pub trait Serialize {
    /// Append `self` to `out`.
    fn serialize(&self, out: &mut Writer);
}

/// A type that reads itself from JSON.
pub trait Deserialize: Sized {
    /// Read one value from `input`.
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize impls for the std types this workspace serializes.
// ---------------------------------------------------------------------------

macro_rules! impl_integer {
    ($write:ident, $read:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.$write(*self as _);
            }
        }
        impl Deserialize for $t {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                <$t>::try_from(input.$read()?).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_integer!(u64, u64: u8, u16, u32, u64, usize);
impl_integer!(i64, i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, out: &mut Writer) {
        out.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.f64()
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut Writer) {
        out.f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.f64().map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Writer) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Writer) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.str().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Writer) {
        out.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Writer) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let s = input.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        if input.null()? {
            Ok(None)
        } else {
            T::deserialize(input).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Writer) {
        out.begin_array();
        for item in self {
            out.element();
            item.serialize(out);
        }
        out.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Writer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.begin_array()?;
        let mut items = Vec::new();
        while input.next_element()? {
            items.push(T::deserialize(input)?);
        }
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Writer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        Vec::<T>::deserialize(input)?
            .try_into()
            .map_err(|_| Error::custom(format!("expected {N}-element array")))
    }
}

macro_rules! impl_tuple {
    ($len:literal: $($name:ident $index:tt),*) => {
        impl<$($name: Serialize),*> Serialize for ($($name,)*) {
            fn serialize(&self, out: &mut Writer) {
                out.begin_array();
                $(out.element(); self.$index.serialize(out);)*
                out.end_array();
            }
        }
        impl<$($name: Deserialize),*> Deserialize for ($($name,)*) {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                input.begin_array()?;
                let value = ($(input.element::<$name>($len)?,)*);
                input.end_array($len)?;
                Ok(value)
            }
        }
    };
}

impl_tuple!(2: A 0, B 1);
impl_tuple!(3: A 0, B 1, C 2);

/// Write `(key, value)` members as one object.
fn serialize_map<'a, V: Serialize + 'a>(
    members: impl Iterator<Item = (&'a String, &'a V)>,
    out: &mut Writer,
) {
    out.begin_object();
    for (key, value) in members {
        out.field(key, value);
    }
    out.end_object();
}

/// Read an object's members into any map; a repeated key keeps its last value.
fn deserialize_map<V: Deserialize, M: Default + Extend<(String, V)>>(
    input: &mut Reader<'_>,
) -> Result<M, Error> {
    let mut map = M::default();
    input.begin_object()?;
    while let Some(key) = input.next_key()? {
        let value = V::deserialize(input)?;
        map.extend([(key.into_owned(), value)]);
    }
    Ok(map)
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self, out: &mut Writer) {
        let mut members: Vec<(&String, &V)> = self.iter().collect();
        members.sort_by(|a, b| a.0.cmp(b.0));
        serialize_map(members.into_iter(), out);
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        deserialize_map(input)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, out: &mut Writer) {
        serialize_map(self.iter(), out);
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        deserialize_map(input)
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn serialize(&self, out: &mut Writer) {
        // serde's externally tagged representation: {"Ok": v} / {"Err": e}.
        out.begin_object();
        match self {
            Ok(v) => out.field("Ok", v),
            Err(e) => out.field("Err", e),
        }
        out.end_object();
    }
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let value = match input.variant("Result")? {
            (tag, true) if tag == "Ok" => Ok(T::deserialize(input)?),
            (tag, true) if tag == "Err" => Err(E::deserialize(input)?),
            (other, _) => {
                return Err(Error::custom(format!(
                    "expected `Ok` or `Err` variant, found `{other}`"
                )))
            }
        };
        input.end_variant()?;
        Ok(value)
    }
}

impl Serialize for Duration {
    fn serialize(&self, out: &mut Writer) {
        out.begin_object();
        out.field("secs", &self.as_secs());
        out.field("nanos", &self.subsec_nanos());
        out.end_object();
    }
}

impl Deserialize for Duration {
    /// `nanos` may exceed a second, as `Duration::new` allows, but a pair that
    /// overflows is an error rather than a panic.
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut secs, mut nanos) = (None, None);
        input.begin_object()?;
        while let Some(key) = input.next_key()? {
            match &*key {
                "secs" => input.field(&mut secs)?,
                "nanos" => input.field(&mut nanos)?,
                _ => input.skip()?,
            }
        }
        let nanos: u32 = required(nanos, "nanos")?;
        Duration::from_secs(required(secs, "secs")?)
            .checked_add(Duration::from_nanos(u64::from(nanos)))
            .ok_or_else(|| Error::custom("duration overflows"))
    }
}
