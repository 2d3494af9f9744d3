//! Offline stand-in for the subset of the
//! [`serde_json`](https://crates.io/crates/serde_json) crate this workspace
//! uses: [`Value`] / [`Map`], [`to_string`] / [`to_string_pretty`],
//! [`from_str`], [`to_value`] / [`from_value`], and a `json!` macro
//! limited to serializable expressions (the only form this repo uses).
//!
//! Built on the `compat/serde` shim: serialization drives the shim's
//! `Serializer` trait into a [`Value`]; deserialization parses JSON text
//! into the shim's `Content` tree and hands subtrees to `Deserialize`
//! impls.

#![warn(missing_docs)]

mod read;
mod write;

pub use read::from_str;
pub use write::{to_string, to_string_pretty};

use serde::de::Content;
use std::fmt;

/// Error type for all serde_json shim operations.
#[derive(Debug, Clone)]
pub struct Error(pub(crate) String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error(msg.to_string())
    }
}

/// A JSON number (integer-preserving, like real serde_json).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An unsigned integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float.
    F64(f64),
}

impl Number {
    /// The number as `f64`.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
            Number::F64(x) => x,
        }
    }

    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U64(n) => Some(n),
            Number::I64(n) => u64::try_from(n).ok(),
            Number::F64(_) => None,
        }
    }
}

/// An order-preserving JSON object.
///
/// Generic in name for API compatibility (`Map<_, _>` in turbofish
/// position), but only `Map<String, Value>` is ever instantiated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(K, V)>,
}

impl Map<String, Value> {
    /// An empty map.
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts an entry, replacing (in place) any existing one with the key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

impl Value {
    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the value is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Member lookup that returns `Null` for missing keys / non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

const NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Value {
        Value::Object(m)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&write::value_to_string(self, false))
    }
}

/// Serializes any `Serialize` value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(write::ValueSerializer)
}

impl serde::Serialize for Value {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_unit(),
            Value::Bool(b) => serializer.serialize_bool(*b),
            Value::Number(Number::U64(n)) => serializer.serialize_u64(*n),
            Value::Number(Number::I64(n)) => serializer.serialize_i64(*n),
            Value::Number(Number::F64(x)) => serializer.serialize_f64(*x),
            Value::String(s) => serializer.serialize_str(s),
            Value::Array(items) => items.serialize(serializer),
            Value::Object(map) => {
                use serde::ser::SerializeMap as _;
                let mut m = serializer.serialize_map(Some(map.len()))?;
                for (k, v) in map.iter() {
                    m.serialize_entry(k, v)?;
                }
                m.end()
            }
        }
    }
}

/// Deserializes any `Deserialize` type from a [`Value`] tree, through
/// its JSON text: [`from_str`] is the shim's one deserialization path.
pub fn from_value<T: for<'de> serde::Deserialize<'de>>(value: Value) -> Result<T, Error> {
    from_str(&value.to_string())
}

impl<'de> serde::Deserialize<'de> for Value {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(content_to_value(deserializer.deserialize_content()?))
    }
}

fn content_to_value(content: Content) -> Value {
    match content {
        Content::Null => Value::Null,
        Content::Bool(b) => Value::Bool(b),
        Content::I64(n) => Value::Number(Number::I64(n)),
        Content::U64(n) => Value::Number(Number::U64(n)),
        Content::F64(x) => Value::Number(Number::F64(x)),
        Content::Str(s) => Value::String(s),
        Content::Seq(items) => Value::Array(items.into_iter().map(content_to_value).collect()),
        Content::Map(entries) => Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k, content_to_value(v)))
                .collect(),
        ),
    }
}

/// Builds a [`Value`] from a serializable expression.
///
/// Unlike real serde_json, only the expression form is supported — this
/// repo never uses the `{...}`/`[...]` literal syntax.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::Null
    };
    ($e:expr) => {
        $crate::to_value(&$e).expect("json!: infallible serialization")
    };
}
