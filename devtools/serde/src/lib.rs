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
//! * The codec is **streaming and JSON-only**: [`Serialize::serialize`]
//!   writes straight into a [`json::Writer`], and
//!   [`Deserialize::deserialize`] reads straight from a [`json::Reader`]
//!   over the input text. No document tree is built in between; the
//!   derive macro emits that straight-line code.
//! * `Option<T>` **struct fields** are skipped when `None` and default to
//!   `None` when missing or `null` — the convention the wire protocol and
//!   the `--format json` golden files pin. (Real serde needs
//!   `skip_serializing_if` + `default` attributes for this.) A key that
//!   occurs twice in one object is read from its first occurrence.
//! * The only container attributes honored are
//!   `#[serde(rename_all = "snake_case")]`, on enums, and
//!   `#[serde(deny_unknown_fields)]`.
//! * [`Value`] is the dynamic document type, for callers that assemble
//!   or inspect JSON without a Rust type behind it (the SARIF renderer,
//!   the benchmark reports). It implements both traits over the same
//!   writer and reader.
//! * [`json`] provides `to_string` / `to_string_pretty` / `from_str` /
//!   `value_from_str`; the pretty form is byte-identical to the
//!   hand-rolled writer the diagnostics renderers used before this crate
//!   existed (object keys in declaration order, two-space indent, empty
//!   containers inline).
//!
//! [serde]: https://docs.rs/serde

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

use json::{Reader, Writer};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// A JSON-shaped document tree: the dynamic document type.
///
/// Object keys keep insertion order (a `Vec`, not a map) so writers are
/// deterministic and field order mirrors construction order.
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

    /// Looks up an object field by key (the first, if it repeats).
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

    /// A required field `key` of `ty` was absent.
    pub fn missing_field(key: &str, ty: &str) -> Self {
        Error::new(format!("missing field `{key}` of `{ty}`"))
    }

    /// `ty` refuses fields it does not declare, and got `key`.
    pub fn unknown_field(key: &str, ty: &str) -> Self {
        Error::new(format!("unknown field `{key}` of `{ty}`"))
    }

    /// `other` is no variant of the enum `ty`.
    pub fn unknown_variant(other: &str, ty: &str) -> Self {
        Error::new(format!("unknown variant `{other}` of `{ty}`"))
    }

    /// The enum `ty` got neither a string nor a single-key map.
    pub fn not_an_enum(ty: &str) -> Self {
        Error::new(format!("expected string or single-key map for enum `{ty}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as one JSON value.
pub trait Serialize {
    /// Writes `self` into `w`.
    fn serialize(&self, w: &mut Writer);
}

/// Types that can read themselves back from one JSON value.
pub trait Deserialize: Sized {
    /// Reads `Self` from the next value of `r`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive and container impls.

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                <$t>::try_from(r.u64()?).map_err(|_| Error::new("integer out of range"))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.i64(i64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                <$t>::try_from(r.i64()?).map_err(|_| Error::new("integer out of range"))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.f64()
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.element();
            item.serialize(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            w.field(k, v);
        }
        w.end_object();
    }
}

/// A key that repeats keeps its last value, as inserting does.
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_object("BTreeMap")?;
        let mut map = BTreeMap::new();
        while let Some(key) = r.next_key()? {
            map.insert(key.into_owned(), V::deserialize(r)?);
        }
        Ok(map)
    }
}

/// Durations serialize as `{"secs": u64, "nanos": u32}`, matching real
/// serde's `Duration` encoding.
impl Serialize for Duration {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.field("secs", &self.as_secs());
        w.field("nanos", &self.subsec_nanos());
        w.end_object();
    }
}

impl Deserialize for Duration {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        const TY: &str = "Duration";
        r.begin_object(TY)?;
        let (mut secs, mut nanos) = (None, None);
        while let Some(key) = r.next_key()? {
            match &*key {
                "secs" => r.field(&mut secs, "secs", TY)?,
                "nanos" => r.field(&mut nanos, "nanos", TY)?,
                _ => r.skip_value()?,
            }
        }
        Ok(Duration::new(
            secs.ok_or_else(|| Error::missing_field("secs", TY))?,
            nanos.ok_or_else(|| Error::missing_field("nanos", TY))?,
        ))
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(n) => w.i64(*n),
            Value::UInt(n) => w.u64(*n),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Seq(items) => items.serialize(w),
            Value::Map(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.field(k, v);
                }
                w.end_object();
            }
        }
    }
}

/// Non-negative integers read as [`Value::UInt`], negative ones as
/// [`Value::Int`], anything with a fraction or exponent as
/// [`Value::Float`]; a repeated object key is kept twice, in order.
impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.peek() {
            Some(b'{') => {
                r.begin_object("Value")?;
                let mut fields = Vec::new();
                while let Some(key) = r.next_key()? {
                    fields.push((key.into_owned(), Value::deserialize(r)?));
                }
                Ok(Value::Map(fields))
            }
            Some(b'[') => Vec::deserialize(r).map(Value::Seq),
            Some(b'"') => r.string().map(Value::Str),
            Some(b't' | b'f') => r.bool().map(Value::Bool),
            Some(b'-' | b'0'..=b'9') => r.number(),
            _ if r.null() => Ok(Value::Null),
            _ => Err(r.unexpected()),
        }
    }
}
