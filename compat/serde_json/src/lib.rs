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

#[cfg(test)]
mod tests {
    use crate::{from_str, from_value, to_string, to_value, Map, Number, Value};

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Report {
        name: String,
        hits: u32,
        score: Option<f64>,
        tags: Vec<String>,
        mode: Mode,
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    enum Mode {
        Batch,
        Serve,
    }

    fn report() -> Report {
        Report {
            name: "a \"b\"".to_string(),
            hits: 3,
            score: None,
            tags: vec!["x".to_string(), String::new()],
            mode: Mode::Serve,
        }
    }

    #[test]
    fn map_insert_replaces_in_place_and_keeps_insertion_order() {
        let mut m = Map::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("b".to_string(), Value::Bool(true)), None);
        assert_eq!(m.insert("a".to_string(), Value::Null), None);
        assert_eq!(
            m.insert("b".to_string(), Value::Bool(false)),
            Some(Value::Bool(true))
        );
        assert_eq!(m.len(), 2);
        assert!(m.contains_key("a") && !m.contains_key("c"));
        assert_eq!(m.keys().collect::<Vec<_>>(), ["b", "a"]);
        assert_eq!(
            m.values().cloned().collect::<Vec<_>>(),
            [Value::Bool(false), Value::Null]
        );
        let rebuilt: Map<String, Value> = m.clone().into_iter().collect();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn indexing_a_missing_member_or_element_yields_null() {
        let v: Value = from_str(r#"{"a":[10,"s"]}"#).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(10));
        assert_eq!(v["a"][1], "s");
        assert!(v["a"][2].is_null());
        assert!(v["b"].is_null());
        assert!(v["a"]["not an object"].is_null());
        assert!(v[0].is_null());
        assert_eq!(v.get("b"), None);
        assert_eq!(Value::Null.get("a"), None);
    }

    #[test]
    fn accessors_match_only_their_own_variant() {
        let s = Value::from("text");
        assert!(s.is_string() && !s.is_null());
        assert_eq!(s, "text");
        assert_eq!(s, "text".to_string());
        assert_eq!(s.as_bool(), None);
        assert_eq!(s.as_f64(), None);
        assert_eq!(Value::Bool(true).as_str(), None);
        assert_eq!(Value::Null.as_array(), None);
        assert_eq!(Value::Array(Vec::new()).as_object(), None);
        assert_eq!(Value::default(), Value::Null);
    }

    #[test]
    fn numbers_convert_only_when_exact() {
        assert_eq!(Number::U64(7).as_u64(), Some(7));
        assert_eq!(Number::I64(7).as_u64(), Some(7));
        assert_eq!(Number::I64(-7).as_u64(), None);
        assert_eq!(Number::F64(7.0).as_u64(), None);
        assert_eq!(Number::I64(-7).as_f64(), -7.0);
        assert_eq!(Value::Number(Number::F64(0.5)).as_f64(), Some(0.5));
    }

    #[test]
    fn json_macro_serializes_its_expression() {
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(3u8), Value::Number(Number::U64(3)));
        assert_eq!(json!(-3i32), Value::Number(Number::I64(-3)));
        assert_eq!(json!("s"), "s");
        assert_eq!(json!(vec![Some(1u32), None]).to_string(), "[1,null]");
        assert_eq!(json!(report())["mode"], "Serve");
    }

    #[test]
    fn derived_structs_and_enums_round_trip() {
        let text = to_string(&report()).unwrap();
        assert_eq!(
            text,
            r#"{"name":"a \"b\"","hits":3,"score":null,"tags":["x",""],"mode":"Serve"}"#
        );
        assert_eq!(from_str::<Report>(&text).unwrap(), report());
        let scored = Report {
            score: Some(0.25),
            mode: Mode::Batch,
            ..report()
        };
        assert_eq!(
            from_value::<Report>(to_value(&scored).unwrap()).unwrap(),
            scored
        );
    }

    #[test]
    fn derived_structs_read_fields_in_any_order_and_ignore_unknown_ones() {
        let text = r#"{"mode":"Batch","extra":[1],"tags":[],"score":1,"hits":0,"name":""}"#;
        let r: Report = from_str(text).unwrap();
        assert_eq!(r.mode, Mode::Batch);
        assert_eq!(r.score, Some(1.0));
        assert!(r.tags.is_empty());
    }

    #[test]
    fn derived_impls_refuse_missing_fields_wrong_shapes_and_unknown_variants() {
        let missing = from_str::<Report>(r#"{"name":"n","hits":1,"score":null,"tags":[]}"#);
        assert!(missing
            .unwrap_err()
            .to_string()
            .contains("missing field `mode`"));
        let not_a_map = from_str::<Report>("[]").unwrap_err().to_string();
        assert!(
            not_a_map.contains("expected a map for struct Report"),
            "{not_a_map}"
        );
        let variant = from_str::<Mode>(r#""Stream""#).unwrap_err().to_string();
        assert!(variant.contains("unknown Mode variant"), "{variant}");
        let not_a_string = from_str::<Mode>("0").unwrap_err().to_string();
        assert!(not_a_string.contains("expected a string for enum Mode"));
    }

    #[test]
    fn primitive_reads_check_kind_and_range() {
        assert_eq!(from_str::<u8>("255").unwrap(), 255);
        assert!(from_str::<u8>("256")
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        assert!(from_str::<u32>("-1").is_err());
        assert_eq!(from_str::<i8>("-128").unwrap(), -128);
        assert!(from_str::<i64>("9223372036854775808").is_err());
        assert!(from_str::<u64>("1.0").is_err());
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
        assert!(from_str::<bool>("1")
            .unwrap_err()
            .to_string()
            .contains("expected a boolean"));
        assert!(from_str::<String>("1").is_err());
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
        assert_eq!(
            from_str::<Vec<Option<u8>>>("[null,1]").unwrap(),
            [None, Some(1)]
        );
        assert!(from_str::<Vec<u8>>("{}")
            .unwrap_err()
            .to_string()
            .contains("sequence"));
    }
}
