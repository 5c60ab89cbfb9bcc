//! Property tests for the JSON decoder: what the renderer writes decodes
//! back to the same tree, damaged input is an error and never a panic,
//! and decoding time grows linearly with string length.

use proptest::prelude::*;
use serde_json::Value;

/// Characters from every class the decoder treats differently: control
/// characters (escaped as `\u00XX` on output), the quote and backslash,
/// ASCII, two-, three- and four-byte UTF-8 (the last written as a
/// surrogate pair by some encoders).
fn any_char() -> impl Strategy<Value = char> {
    let scalar = |c: u32| char::from_u32(c).expect("range holds scalar values only");
    prop_oneof![
        (0u32..0x20).prop_map(scalar),
        Just('"'),
        Just('\\'),
        Just('/'),
        (0x20u32..0x7f).prop_map(scalar),
        (0x80u32..0x800).prop_map(scalar),
        (0x800u32..0xd800).prop_map(scalar),
        (0xe000u32..0x10000).prop_map(scalar),
        (0x10000u32..0x110000).prop_map(scalar),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..24).prop_map(|chars| chars.into_iter().collect())
}

/// Finite floats only: JSON has no spelling for NaN or the infinities.
fn any_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64 / 64.0),
    ]
    .prop_map(|f| if f.is_finite() { f } else { 0.5 })
}

fn any_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any_float().prop_map(Value::Float),
        any_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(5, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Seq),
            prop::collection::vec((any_string(), inner), 0..6).prop_map(Value::Map),
        ]
    })
}

/// Renders `s` as a JSON string literal the way Python's `json.dumps`
/// does by default: everything outside printable ASCII as `\uXXXX`,
/// characters beyond the Basic Multilingual Plane as surrogate pairs.
fn ascii_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out.push('"');
    out
}

/// One edit to a document's bytes: overwrite, insert, delete or cut.
fn any_mutation() -> impl Strategy<Value = (u8, usize, u8)> {
    (0u8..4, any::<usize>(), any::<u8>())
}

/// Tokens that steer the decoder into its escape and nesting paths.
const SPLICES: &[&[u8]] = &[b"\"", b"\\", b"\\u", b"\\ud83d", b"\\ude00", b"[", b"{", b"\\u+041"];

fn mutate(doc: &mut Vec<u8>, (kind, at, byte): (u8, usize, u8)) {
    let at = if doc.is_empty() { 0 } else { at % doc.len() };
    match kind {
        0 if !doc.is_empty() => doc[at] = byte,
        1 => {
            let splice = SPLICES[usize::from(byte) % SPLICES.len()];
            doc.splice(at..at, splice.iter().copied());
        }
        2 if !doc.is_empty() => {
            doc.remove(at);
        }
        _ => doc.truncate(at),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Compact and pretty output both decode to the tree they came from.
    fn rendered_values_decode_unchanged(v in any_value()) {
        let compact = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&compact).unwrap();
        prop_assert_eq!(&back, &v, "compact: {}", compact);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&back, &v, "pretty: {}", pretty);
    }

    /// `\u` escapes, surrogate pairs included, decode to the characters
    /// they name.
    fn ascii_escaped_strings_decode(s in any_string()) {
        let doc = ascii_escaped(&s);
        let back: Value = serde_json::from_str(&doc).unwrap();
        prop_assert_eq!(back, Value::Str(s), "{}", doc);
    }

    /// Damaged documents decode to something or fail; they never panic.
    fn damaged_documents_never_panic(
        v in any_value(),
        edits in prop::collection::vec(any_mutation(), 1..6),
    ) {
        let mut doc = serde_json::to_string(&v).unwrap().into_bytes();
        for edit in edits {
            mutate(&mut doc, edit);
        }
        let text = String::from_utf8_lossy(&doc);
        let _ = serde_json::from_str::<Value>(&text);
    }
}

#[test]
fn long_string_decodes_in_linear_time() {
    // 2 MiB of text mixing plain runs, escapes and multi-byte characters;
    // a decoder that rescans the rest of the input per character needs
    // minutes for this in a debug build.
    let unit = "plain ascii run \u{e9}\u{4e2d}\u{1F600} \"quoted\"\\\n\t\u{1}";
    let mut text = String::new();
    while text.len() < 2 << 20 {
        text.push_str(unit);
    }
    let doc = serde_json::to_string(&Value::Str(text.clone())).unwrap();
    let start = std::time::Instant::now();
    let back: Value = serde_json::from_str(&doc).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(back, Value::Str(text));
    assert!(elapsed < std::time::Duration::from_secs(10), "2 MiB string took {elapsed:?}");
}
