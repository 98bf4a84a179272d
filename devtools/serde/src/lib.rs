//! An offline, dependency-free stand-in for the [serde] + `serde_json`
//! API subset this workspace uses.
//!
//! Like the `proptest` and `criterion` shims next door, this crate exists
//! because the build environment has no network access: workspace crates
//! write `serde = { workspace = true }` and `#[derive(Serialize,
//! Deserialize)]` exactly as they would against the real crates, and the
//! path dependency resolves here.
//!
//! Differences from real serde (acceptable for this workspace):
//!
//! * Serialization is **tree-building, not visitor-driven**:
//!   [`Serialize::serialize`] returns a [`Value`], and
//!   [`Deserialize::deserialize`] reads one. The derive macro targets this
//!   model directly.
//! * `Option<T>` **struct fields** are skipped when `None` and default to
//!   `None` when missing — the convention the wire protocol and the
//!   `--format json` golden files pin. (Real serde needs
//!   `skip_serializing_if` + `default` attributes for this.)
//! * The only container attribute honored is
//!   `#[serde(rename_all = "snake_case")]`, on enums.
//! * [`json`] provides `to_string` / `to_string_pretty` / `from_str` over
//!   the same `Value` model; the pretty form is byte-identical to the
//!   hand-rolled writer the diagnostics renderers used before this crate
//!   existed (object keys in declaration order, two-space indent, empty
//!   containers inline).
//!
//! [serde]: https://docs.rs/serde

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// A JSON-shaped document tree: the serialization data model.
///
/// Object keys keep insertion order (a `Vec`, not a map) so writers are
/// deterministic and field order mirrors struct declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (non-negative integers parse as [`Value::UInt`]).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, keys in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The object fields, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up an object field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The integer content as `i64`, if it fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Types that can serialize themselves into a [`Value`].
pub trait Serialize {
    /// Builds the value tree for `self`.
    fn serialize(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Reads `self` back out of a value tree.
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Derive-support helpers (referenced by serde_derive's generated code).

/// Extracts the object fields of `value`, or errors naming `ty`.
#[doc(hidden)]
pub fn __as_map<'v>(value: &'v Value, ty: &str) -> Result<&'v [(String, Value)], Error> {
    value
        .as_map()
        .ok_or_else(|| Error::new(format!("expected map for `{ty}`")))
}

/// Deserializes required field `key`, or errors naming `ty`.
#[doc(hidden)]
pub fn __field<T: Deserialize>(map: &[(String, Value)], key: &str, ty: &str) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => {
            T::deserialize(v).map_err(|e| Error::new(format!("field `{key}` of `{ty}`: {e}")))
        }
        None => Err(Error::new(format!("missing field `{key}` of `{ty}`"))),
    }
}

/// Errors naming `ty` if `map` has a key outside `fields`
/// (`#[serde(deny_unknown_fields)]`).
#[doc(hidden)]
pub fn __deny_unknown(map: &[(String, Value)], fields: &[&str], ty: &str) -> Result<(), Error> {
    match map.iter().find(|(k, _)| !fields.contains(&k.as_str())) {
        Some((key, _)) => Err(Error::new(format!("unknown field `{key}` of `{ty}`"))),
        None => Ok(()),
    }
}

/// Deserializes optional field `key` (missing or `null` becomes `None`).
#[doc(hidden)]
pub fn __opt_field<T: Deserialize>(
    map: &[(String, Value)],
    key: &str,
    ty: &str,
) -> Result<Option<T>, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => Option::<T>::deserialize(v)
            .map_err(|e| Error::new(format!("field `{key}` of `{ty}`: {e}"))),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Primitive and container impls.

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::new("expected bool")),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::UInt(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let n = value
                    .as_u64()
                    .ok_or_else(|| Error::new("expected non-negative integer"))?;
                <$t>::try_from(n).map_err(|_| Error::new("integer out of range"))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let n = i64::from(*self);
                if n >= 0 {
                    Value::UInt(n as u64)
                } else {
                    Value::Int(n)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let n = value
                    .as_i64()
                    .ok_or_else(|| Error::new("expected integer"))?;
                <$t>::try_from(n).map_err(|_| Error::new("integer out of range"))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64);

impl Serialize for usize {
    fn serialize(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl Deserialize for usize {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let n = value
            .as_u64()
            .ok_or_else(|| Error::new("expected non-negative integer"))?;
        usize::try_from(n).map_err(|_| Error::new("integer out of range"))
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            _ => Err(Error::new("expected number")),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::new("expected string"))
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::deserialize(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::deserialize).collect(),
            _ => Err(Error::new("expected array")),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let fields = value.as_map().ok_or_else(|| Error::new("expected map"))?;
        fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
            .collect()
    }
}

/// Durations serialize as `{"secs": u64, "nanos": u32}`, matching real
/// serde's `Duration` encoding.
impl Serialize for Duration {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("secs".to_string(), Value::UInt(self.as_secs())),
            (
                "nanos".to_string(),
                Value::UInt(u64::from(self.subsec_nanos())),
            ),
        ])
    }
}

impl Deserialize for Duration {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let map = __as_map(value, "Duration")?;
        let secs: u64 = __field(map, "secs", "Duration")?;
        let nanos: u32 = __field(map, "nanos", "Duration")?;
        Ok(Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
