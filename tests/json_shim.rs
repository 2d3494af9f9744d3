//! The JSON shim (`compat/serde_json`) against its own reader: every
//! value it writes reads back equal, and its escape and nesting rules
//! hold on a fixed corpus. Its reader and writer carry every wire byte
//! of the daemon, so a round-trip fault here is a protocol fault.

use proptest::prelude::*;
use serde_json::{from_str, to_string, to_string_pretty, Map, Number, Value};

/// Characters the writer must escape or pass through intact: quotes,
/// backslashes, every control character, plain ASCII, BMP text (both
/// sides of the surrogate gap) and astral-plane characters.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        Just('/'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x20u32..0x7F).prop_map(|c| char::from_u32(c).unwrap()),
        (0x80u32..0xD800).prop_map(|c| char::from_u32(c).unwrap()),
        (0xE000u32..0x1_0000).prop_map(|c| char::from_u32(c).unwrap()),
        (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

/// Numbers as the reader produces them: non-negative integers are
/// `U64`, negative ones `I64`, and floats any finite `f64` — arbitrary
/// bit patterns (subnormals, extremes) and integral values, which the
/// writer must keep distinguishable from integers.
fn any_number() -> impl Strategy<Value = Number> {
    prop_oneof![
        any::<u64>().prop_map(Number::U64),
        (i64::MIN..0).prop_map(Number::I64),
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            Number::F64(if x.is_finite() { x } else { 0.5 })
        }),
        (-1e20f64..1e20).prop_map(|x| Number::F64(x.trunc())),
    ]
}

/// Values nested up to depth 8 (the top level counts as depth 1).
fn any_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any_number().prop_map(Value::Number),
        any_string().prop_map(Value::String),
    ];
    leaf.prop_recursive(7, 64, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::vec((any_string(), inner), 0..4)
                .prop_map(|entries| Value::Object(entries.into_iter().collect::<Map<_, _>>())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_values_read_back_equal(v in any_value()) {
        let compact = to_string(&v).unwrap();
        prop_assert_eq!(from_str::<Value>(&compact).unwrap(), v.clone(), "{}", compact);
        let pretty = to_string_pretty(&v).unwrap();
        prop_assert_eq!(from_str::<Value>(&pretty).unwrap(), v, "{}", pretty);
    }
}

#[test]
fn every_control_character_is_escaped() {
    for c in (0u32..0x20).map(|c| char::from_u32(c).unwrap()) {
        let text = to_string(&Value::String(format!("a{c}b"))).unwrap();
        assert!(
            text.bytes().all(|b| b >= 0x20),
            "U+{:04X} written raw: {text:?}",
            c as u32
        );
        assert_eq!(from_str::<Value>(&text).unwrap(), format!("a{c}b"));
    }
    // Raw control bytes inside a string are not JSON.
    assert!(from_str::<Value>("\"a\u{1}b\"").is_err());
    assert!(from_str::<Value>("\"a\nb\"").is_err());
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
    assert_eq!(from_str::<Value>(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
    assert_eq!(
        from_str::<Value>(r#""a\uD834\uDD1Eb""#).unwrap(),
        "a\u{1D11E}b"
    );
    for lone in [
        r#""\ud800""#,
        r#""\ud800x""#,
        r#""\udc00""#,
        r#""\ud800A""#,
        r#""\ude00\ud83d""#,
    ] {
        assert!(from_str::<Value>(lone).is_err(), "{lone} accepted");
    }
}

#[test]
fn depth_128_parses_and_depth_129_is_refused() {
    let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    // `depth - 1` objects around a leaf: the leaf is the deepest level.
    let objects = |depth: usize| r#"{"k":"#.repeat(depth - 1) + "0" + &"}".repeat(depth - 1);
    for nested in [arrays, objects] {
        assert!(from_str::<Value>(&nested(128)).is_ok());
        let err = from_str::<Value>(&nested(129)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}

#[test]
fn number_extremes_read_back_exactly() {
    for n in [
        Number::U64(u64::MAX),
        Number::I64(i64::MIN),
        Number::F64(1e15),
        Number::F64(-4.5e18),
        Number::F64(f64::MAX),
        Number::F64(f64::MIN_POSITIVE),
        Number::F64(5e-324),
    ] {
        let text = to_string(&Value::Number(n)).unwrap();
        assert_eq!(
            from_str::<Value>(&text).unwrap(),
            Value::Number(n),
            "{text}"
        );
    }
}
