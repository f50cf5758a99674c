//! Offline stand-in for the `serde_json` crate: thin wrappers over the vendored
//! `serde` shim's JSON writer and reader (`serde::json`), which own the format.

#![forbid(unsafe_code)]

pub use serde::Error;

use serde::{Deserialize, Serialize};

/// Serialize a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::json::to_string(value, false))
}

/// Serialize a value as pretty JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::json::to_string(value, true))
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    serde::json::from_str(input)
}
