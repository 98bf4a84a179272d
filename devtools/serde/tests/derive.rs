//! Exercises the `serde_derive` shim against the `serde` shim — structs,
//! enums, option-skipping, renaming, and error paths.

use serde::{json, Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    label: String,
    count: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Outer {
    name: String,
    total: usize,
    signed: i64,
    flag: bool,
    items: Vec<Inner>,
    note: Option<String>,
    span: Option<Inner>,
    elapsed: std::time::Duration,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Command {
    Check,
    OpenFile { path: String, text: String },
    SetLevel { level: Option<u32> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
enum Strict {
    Set { on: bool },
    Reset,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct StrictPair {
    left: u64,
    right: Option<u64>,
}

fn sample() -> Outer {
    Outer {
        name: "dev".into(),
        total: 3,
        signed: -7,
        flag: true,
        items: vec![Inner {
            label: "a\"b".into(),
            count: u64::MAX,
        }],
        note: None,
        span: Some(Inner {
            label: "s".into(),
            count: 0,
        }),
        elapsed: std::time::Duration::new(2, 125_000_000),
    }
}

#[test]
fn struct_round_trip() {
    let outer = sample();
    let text = json::to_string(&outer);
    let back: Outer = json::from_str(&text).unwrap();
    assert_eq!(back, outer);
}

#[test]
fn none_fields_are_skipped_and_default() {
    let text = json::to_string(&sample());
    assert!(!text.contains("\"note\""), "{text}");
    assert!(text.contains("\"span\""), "{text}");
    // A document missing optional fields still deserializes.
    let minimal = r#"{"name":"x","total":0,"signed":0,"flag":false,"items":[],"elapsed":{"secs":0,"nanos":0}}"#;
    let back: Outer = json::from_str(minimal).unwrap();
    assert_eq!(back.note, None);
    assert_eq!(back.span, None);
}

#[test]
fn field_order_is_declaration_order() {
    let value = json::value_from_str(&json::to_string(&sample())).unwrap();
    let keys: Vec<&str> = value
        .as_map()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["name", "total", "signed", "flag", "items", "span", "elapsed"]
    );
}

#[test]
fn enum_encoding_is_externally_tagged_snake_case() {
    assert_eq!(json::to_string(&Command::Check), r#""check""#);
    let open = Command::OpenFile {
        path: "a.py".into(),
        text: "x = 1\n".into(),
    };
    assert_eq!(
        json::to_string(&open),
        r#"{"open_file":{"path":"a.py","text":"x = 1\n"}}"#
    );
    for cmd in [
        Command::Check,
        open,
        Command::SetLevel { level: None },
        Command::SetLevel { level: Some(2) },
    ] {
        let text = json::to_string(&cmd);
        assert_eq!(json::from_str::<Command>(&text).unwrap(), cmd, "{text}");
    }
}

#[test]
fn unknown_variants_and_missing_fields_error() {
    assert!(json::from_str::<Command>(r#""frobnicate""#).is_err());
    assert!(json::from_str::<Command>(r#"{"open_file":{"path":"a"}}"#).is_err());
    let err = json::from_str::<Inner>(r#"{"label":"x"}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `count`"), "{err}");
    assert!(json::from_str::<Inner>("[1]").is_err());
}

#[test]
fn value_accessors() {
    let v = json::value_from_str(r#"{"a":1,"b":"s"}"#).unwrap();
    assert_eq!(v.get("a"), Some(&Value::UInt(1)));
    assert_eq!(v.get("b").unwrap().as_str(), Some("s"));
    assert_eq!(v.get("missing"), None);
}

#[test]
fn deny_unknown_fields_rejects_extra_keys() {
    let set: Strict = json::from_str(r#"{"set":{"on":true}}"#).unwrap();
    assert_eq!(set, Strict::Set { on: true });
    let reset: Strict = json::from_str(r#""reset""#).unwrap();
    assert_eq!(reset, Strict::Reset);
    let e = json::from_str::<Strict>(r#"{"set":{"on":true,"mode":"x"}}"#).unwrap_err();
    assert!(
        e.to_string()
            .contains("unknown field `mode` of `Strict::Set`"),
        "{e}"
    );
    let pair: StrictPair = json::from_str(r#"{"left":1}"#).unwrap();
    assert_eq!(
        pair,
        StrictPair {
            left: 1,
            right: None
        }
    );
    let e = json::from_str::<StrictPair>(r#"{"left":1,"extra":2}"#).unwrap_err();
    assert!(
        e.to_string()
            .contains("unknown field `extra` of `StrictPair`"),
        "{e}"
    );
    // Without the attribute, extra keys are ignored.
    let inner: Inner = json::from_str(r#"{"label":"x","count":1,"extra":2}"#).unwrap();
    assert_eq!(inner.count, 1);
}

#[test]
fn a_repeated_key_keeps_its_first_value() {
    let inner: Inner = json::from_str(r#"{"label":"a","count":1,"label":"b"}"#).unwrap();
    assert_eq!(inner.label, "a");
    // A `null` first occurrence of an optional field wins too.
    let pair: StrictPair = json::from_str(r#"{"left":1,"right":null,"right":2}"#).unwrap();
    assert_eq!(pair.right, None);
    // The ignored occurrence is still checked to be JSON.
    assert!(json::from_str::<Inner>(r#"{"label":"a","count":1,"label":[}"#).is_err());
}

#[test]
fn unknown_fields_are_skipped_but_must_be_json() {
    let inner: Inner =
        json::from_str(r#"{"extra":{"deep":[1,2,{"x":null}]},"count":4,"label":"y"}"#).unwrap();
    assert_eq!(inner.count, 4);
    assert!(json::from_str::<Inner>(r#"{"label":"x","count":1,"extra":[1,}"#).is_err());
    assert!(json::from_str::<Inner>(r#"{"label":"x","count":1,"extra":tru}"#).is_err());
    assert!(json::from_str::<Inner>(r#"{"label":"x","count":1} {}"#).is_err());
}

#[test]
fn errors_name_the_field_and_type() {
    let e = json::from_str::<Outer>(r#"{"name":3}"#).unwrap_err();
    assert_eq!(e.to_string(), "field `name` of `Outer`: expected string");
    let e = json::from_str::<Command>(r#"{"open_file":{"path":"a"}}"#).unwrap_err();
    assert_eq!(e.to_string(), "missing field `text` of `Command::OpenFile`");
    let e = json::from_str::<Command>(r#"{"check":{}}"#).unwrap_err();
    assert_eq!(e.to_string(), "unknown variant `check` of `Command`");
    let e = json::from_str::<Command>(r#"{"open_file":{"path":"a","text":""},"x":1}"#).unwrap_err();
    assert_eq!(
        e.to_string(),
        "expected string or single-key map for enum `Command`"
    );
}

#[test]
fn pretty_output_indents_and_keeps_empty_containers_inline() {
    let outer = Outer {
        items: Vec::new(),
        ..sample()
    };
    assert_eq!(
        json::to_string_pretty(&outer),
        "{\n  \"name\": \"dev\",\n  \"total\": 3,\n  \"signed\": -7,\n  \"flag\": true,\n  \
         \"items\": [],\n  \"span\": {\n    \"label\": \"s\",\n    \"count\": 0\n  },\n  \
         \"elapsed\": {\n    \"secs\": 2,\n    \"nanos\": 125000000\n  }\n}"
    );
}
