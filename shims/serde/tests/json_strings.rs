//! The JSON string path: random strings round-trip through the writer
//! and parser as values and as object keys, malformed strings fail with
//! the same message and byte offset as ever, and parsing stays linear in
//! the input length.

use proptest::prelude::*;
use serde::json::{parse, Value};
use std::time::{Duration, Instant};

/// Fragments mixing 1- to 4-byte UTF-8, the two bytes that end a plain
/// run (`"` and `\`), control characters and a long unescaped run.
const PIECES: [&str; 14] = [
    "a",
    "Z9 ",
    "é",
    "€",
    "😀",
    "\"",
    "\\",
    "\n",
    "\t",
    "\r",
    "\u{1}",
    "\u{1f}",
    "/",
    "a long run of plain ascii text with no escapes at all, ",
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..24)
        .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip_as_values_and_keys(s in arb_string(), k in arb_string()) {
        let v = Value::String(s.clone());
        prop_assert_eq!(parse(&v.to_json_compact()).unwrap(), v.clone());
        prop_assert_eq!(parse(&v.to_json_pretty()).unwrap(), v.clone());
        let obj = Value::Object(vec![(k, v), (s, Value::U64(1))]);
        prop_assert_eq!(parse(&obj.to_json_compact()).unwrap(), obj.clone());
        prop_assert_eq!(parse(&obj.to_json_pretty()).unwrap(), obj);
    }
}

fn parse_err(text: &str) -> String {
    parse(text).unwrap_err().to_string()
}

#[test]
fn surrogate_pair_escape_decodes_to_one_astral_char() {
    assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::String("😀".into()));
    let obj = parse(r#"{"\ud83d\ude00":"😀"}"#).unwrap();
    assert_eq!(obj, Value::Object(vec![("😀".into(), Value::String("😀".into()))]));
    assert_eq!(parse_err(r#""😀\ud83d""#), "invalid \\u escape at byte 11");
}

#[test]
fn unterminated_strings_after_multibyte_runs_report_the_end_offset() {
    assert_eq!(parse_err("\"aé€😀"), "unterminated string at byte 11");
    assert_eq!(parse_err("\"é€😀\\"), "unterminated escape at byte 11");
    assert_eq!(parse_err("{\"é€😀"), "unterminated string at byte 11");
    assert_eq!(parse_err("{\"k😀\":\"v€"), "unterminated string at byte 14");
    assert_eq!(parse_err("\"é\\q\""), "invalid escape character at byte 5");
    assert_eq!(parse_err("\"€\\u12\""), "truncated \\u escape at byte 6");
    assert_eq!(parse_err("[\"😀\","), "unexpected end of input at byte 8");
}

/// A quadratic scan over a 256 KiB string takes tens of seconds; the
/// linear one takes well under a millisecond.
#[test]
fn long_multibyte_string_parses_in_linear_time() {
    let body = "é".repeat(128 * 1024);
    let doc = format!("\"{body}\"");
    assert_eq!(doc.len(), 256 * 1024 + 2);
    let t = Instant::now();
    let v = parse(&doc).unwrap();
    let took = t.elapsed();
    assert_eq!(v.as_str().unwrap(), body);
    assert!(took < Duration::from_secs(1), "256 KiB string took {took:?}");
}
