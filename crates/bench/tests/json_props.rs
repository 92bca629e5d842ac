//! Property tests for `Json::parse`, the reader behind every golden
//! corpus, baseline and spec file: it never panics, and it inverts the
//! writer on every document the writer can emit.

use bench_harness::json::{Json, MAX_DEPTH};
use proptest::prelude::*;
use proptest::{collection, Rejection};
use rand::rngs::SmallRng;
use rand::Rng;

/// Fragments that drive the parser into each of its states, including
/// half-finished escapes, surrogates and numbers.
const FRAGMENTS: [&str; 34] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\udc00",
    "\\n",
    "00e9",
    "null",
    "tru",
    "false",
    "0",
    "-",
    "1",
    "9",
    ".",
    "e",
    "E",
    "+",
    "18446744073709551616",
    " ",
    "\n",
    "a",
    "é",
    "😀",
    "\u{1}",
    "\u{7f}",
    "nan",
    "1e999",
];

/// Arbitrary documents the writer can emit: finite floats only (the
/// writer maps NaN and infinities to `null` by design).
#[derive(Debug)]
struct Documents {
    depth: u32,
}

fn any_string(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..8usize);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())].to_string(),
            1 => char::from(rng.gen_range(0..0x80u8)).to_string(),
            _ => char::from_u32(rng.gen_range(0..0x11_0000u32))
                .unwrap_or('\u{fffd}')
                .to_string(),
        })
        .collect()
}

fn any_float(rng: &mut SmallRng) -> f64 {
    let v = match rng.gen_range(0..4u32) {
        // Whole values, up to beyond the u64 range.
        0 => (rng.gen::<u64>() >> rng.gen_range(0..64u32)) as f64,
        // Small fractions.
        1 => f64::from(rng.gen_range(0..1_000_000u32)) / 1024.0,
        // Any finite bit pattern: subnormals, huge exponents, -0.0.
        _ => f64::from_bits(rng.gen::<u64>()),
    };
    let v = if rng.gen_bool(0.5) { -v } else { v };
    if v.is_finite() {
        v
    } else {
        0.5
    }
}

fn any_document(rng: &mut SmallRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 5u32 } else { 7 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::UInt(rng.gen::<u64>() >> rng.gen_range(0..64u32)),
        3 => Json::Float(any_float(rng)),
        4 => Json::String(any_string(rng)),
        5 => Json::Array(
            (0..rng.gen_range(0..5usize))
                .map(|_| any_document(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0..5usize))
                .map(|_| (any_string(rng), any_document(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for Documents {
    type Value = Json;

    fn sample(&self, rng: &mut SmallRng) -> Result<Json, Rejection> {
        Ok(any_document(rng, self.depth))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_fragment_soup(
        picks in collection::vec(0..FRAGMENTS.len(), 0..48)
    ) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = Json::parse(&text);
    }

    #[test]
    fn parse_never_panics_on_arbitrary_chars(
        codes in collection::vec(0u32..0x11_0000, 0..48)
    ) {
        let text: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let _ = Json::parse(&text);
    }

    #[test]
    fn parse_inverts_the_writer(doc in Documents { depth: 4 }) {
        prop_assert_eq!(Json::parse(&doc.to_string()).ok(), Some(doc.clone()));
        prop_assert_eq!(Json::parse(&doc.pretty()).ok(), Some(doc));
    }

    #[test]
    fn nesting_parses_up_to_the_depth_limit_and_fails_beyond_it(
        openers in collection::vec(0u8..2, 0..2 * MAX_DEPTH)
    ) {
        // A chain of arrays and single-key objects around one scalar.
        let mut text = String::new();
        for &o in &openers {
            text.push_str(if o == 0 { "[" } else { "{\"k\": " });
        }
        text.push('0');
        for &o in openers.iter().rev() {
            text.push(if o == 0 { ']' } else { '}' });
        }
        let parsed = Json::parse(&text);
        prop_assert_eq!(parsed.is_ok(), openers.len() <= MAX_DEPTH);
    }
}

#[test]
fn a_deeply_nested_file_fails_without_exhausting_the_stack() {
    for opener in ["[", "{\"k\":"] {
        let err = Json::parse(&opener.repeat(200_000)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
    }
}
