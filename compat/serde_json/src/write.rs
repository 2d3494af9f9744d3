//! Serialization: `Serialize` → [`Value`] → JSON text (compact or pretty).

use crate::{Error, Map, Number, Value};
use serde::ser::{SerializeMap, SerializeSeq, SerializeStruct};

/// Serializes `value` to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value_to_string(&crate::to_value(value)?, false))
}

/// Serializes `value` to pretty-printed (2-space indented) JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value_to_string(&crate::to_value(value)?, true))
}

pub(crate) fn value_to_string(value: &Value, pretty: bool) -> String {
    let mut out = String::new();
    write_value(value, pretty, 0, &mut out);
    out
}

fn write_value(value: &Value, pretty: bool, indent: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    newline_indent(indent + 1, out);
                }
                write_value(item, pretty, indent + 1, out);
            }
            if pretty {
                newline_indent(indent, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    newline_indent(indent + 1, out);
                }
                write_string(k, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(v, pretty, indent + 1, out);
            }
            if pretty {
                newline_indent(indent, out);
            }
            out.push('}');
        }
    }
}

fn newline_indent(level: usize, out: &mut String) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_number(n: Number, out: &mut String) {
    match n {
        Number::U64(v) => out.push_str(&v.to_string()),
        Number::I64(v) => out.push_str(&v.to_string()),
        Number::F64(v) if v.is_finite() => {
            // Like real serde_json, integral floats keep a ".0", so they
            // read back as floats, not integers. `Display` never writes
            // an exponent, so a float without '.' is integral.
            let text = v.to_string();
            out.push_str(&text);
            if !text.contains('.') {
                out.push_str(".0");
            }
        }
        // Real serde_json refuses non-finite floats; emitting null keeps
        // report generation total without an error path through Display.
        Number::F64(_) => out.push_str("null"),
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The `Serializer` that builds a [`Value`] tree.
pub(crate) struct ValueSerializer;

impl serde::Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = SeqBuilder;
    type SerializeMap = MapBuilder;
    type SerializeStruct = MapBuilder;

    fn serialize_bool(self, v: bool) -> Result<Value, Error> {
        Ok(Value::Bool(v))
    }
    fn serialize_i64(self, v: i64) -> Result<Value, Error> {
        Ok(Value::Number(if v >= 0 {
            Number::U64(v as u64)
        } else {
            Number::I64(v)
        }))
    }
    fn serialize_u64(self, v: u64) -> Result<Value, Error> {
        Ok(Value::Number(Number::U64(v)))
    }
    fn serialize_f64(self, v: f64) -> Result<Value, Error> {
        Ok(Value::Number(Number::F64(v)))
    }
    fn serialize_str(self, v: &str) -> Result<Value, Error> {
        Ok(Value::String(v.to_string()))
    }
    fn serialize_unit(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_none(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_some<T: serde::Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
        value.serialize(ValueSerializer)
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<Value, Error> {
        Ok(Value::String(variant.to_string()))
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<SeqBuilder, Error> {
        Ok(SeqBuilder {
            items: Vec::with_capacity(len.unwrap_or(0)),
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<MapBuilder, Error> {
        Ok(MapBuilder { map: Map::new() })
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<MapBuilder, Error> {
        Ok(MapBuilder { map: Map::new() })
    }
}

/// Accumulates array elements.
pub(crate) struct SeqBuilder {
    items: Vec<Value>,
}

impl SerializeSeq for SeqBuilder {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: serde::Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Array(self.items))
    }
}

/// Accumulates object entries (used for both maps and structs).
pub(crate) struct MapBuilder {
    map: Map<String, Value>,
}

impl SerializeMap for MapBuilder {
    type Ok = Value;
    type Error = Error;
    fn serialize_entry<K: serde::Serialize + ?Sized, V: serde::Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Error> {
        let key = match key.serialize(ValueSerializer)? {
            Value::String(s) => s,
            other => return Err(Error(format!("map key must be a string, got {other:?}"))),
        };
        self.map.insert(key, value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Object(self.map))
    }
}

impl SerializeStruct for MapBuilder {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: serde::Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.map
            .insert(key.to_string(), value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Object(self.map))
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_str, to_string, to_string_pretty, Map, Number, Value};

    fn nested() -> Value {
        let mut inner = Map::new();
        inner.insert(
            "k".to_string(),
            Value::Array(vec![Value::Null, Value::Bool(true)]),
        );
        inner.insert("e".to_string(), Value::Array(Vec::new()));
        inner.insert("o".to_string(), Value::Object(Map::new()));
        Value::Array(vec![Value::Object(inner), Value::from("s")])
    }

    #[test]
    fn compact_output_has_no_whitespace() {
        assert_eq!(
            to_string(&nested()).unwrap(),
            r#"[{"k":[null,true],"e":[],"o":{}},"s"]"#
        );
        assert_eq!(nested().to_string(), to_string(&nested()).unwrap());
    }

    #[test]
    fn pretty_output_indents_two_spaces_per_level() {
        let want = "[\n  {\n    \"k\": [\n      null,\n      true\n    ],\n    \"e\": [],\n    \"o\": {}\n  },\n  \"s\"\n]";
        let text = to_string_pretty(&nested()).unwrap();
        assert_eq!(text, want);
        assert_eq!(from_str::<Value>(&text).unwrap(), nested());
        assert_eq!(to_string_pretty(&Value::Null).unwrap(), "null");
    }

    #[test]
    fn floats_keep_a_fraction_and_non_finite_ones_become_null() {
        let write = |x: f64| to_string(&Value::Number(Number::F64(x))).unwrap();
        assert_eq!(write(1.0), "1.0");
        assert_eq!(write(-0.0), "-0.0");
        assert_eq!(write(0.1), "0.1");
        assert_eq!(write(1e20), "100000000000000000000.0");
        assert_eq!(write(f64::NAN), "null");
        assert_eq!(write(f64::INFINITY), "null");
        assert_eq!(write(f64::NEG_INFINITY), "null");
        assert_eq!(
            to_string(&f32::MAX).unwrap(),
            to_string(&f64::from(f32::MAX)).unwrap()
        );
    }

    #[test]
    fn object_keys_are_escaped_like_strings() {
        let mut m = Map::new();
        m.insert("a\"b\\c\n\u{7}".to_string(), Value::Null);
        let text = to_string(&Value::Object(m.clone())).unwrap();
        assert_eq!(text, r#"{"a\"b\\c\n\u0007":null}"#);
        assert_eq!(from_str::<Value>(&text).unwrap(), Value::Object(m));
    }

    #[test]
    fn non_negative_signed_integers_are_written_as_unsigned() {
        assert_eq!(
            crate::to_value(&5i64).unwrap(),
            Value::Number(Number::U64(5))
        );
        assert_eq!(
            crate::to_value(&-5i64).unwrap(),
            Value::Number(Number::I64(-5))
        );
        assert_eq!(
            to_string(&[i64::MIN, 0, i64::MAX]).unwrap(),
            "[-9223372036854775808,0,9223372036854775807]"
        );
        assert_eq!(to_string(&()).unwrap(), "null");
    }
}
