//! Property tests for `Json::parse`, the reader behind every golden
//! corpus, baseline and spec file: it never panics, it inverts the
//! writer on every document the writer can emit whose objects name each
//! key once, and it refuses an object that names a key twice.

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
/// writer maps NaN and infinities to `null` by design), and distinct keys
/// within each object.
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
        _ => {
            let mut pairs: Vec<(String, Json)> = Vec::new();
            for _ in 0..rng.gen_range(0..5usize) {
                let pair = (any_string(rng), any_document(rng, depth - 1));
                if pairs.iter().all(|(key, _)| *key != pair.0) {
                    pairs.push(pair);
                }
            }
            Json::Object(pairs)
        }
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
    fn a_repeated_key_fails_to_parse_and_distinct_keys_round_trip(
        value in Documents { depth: 3 },
        fragment in 0..FRAGMENTS.len(),
        first in 0usize..4,
        gap in 0usize..4,
    ) {
        // Four distinct keys round-trip, at the top level and nested.
        let keys: Vec<String> = (0..4).map(|i| format!("{}{i}", FRAGMENTS[fragment])).collect();
        let pairs: Vec<(String, Json)> = keys.iter().map(|k| (k.clone(), value.clone())).collect();
        let object = Json::Object(pairs.clone());
        let nested = Json::Array(vec![value.clone(), object.clone()]);
        for doc in [object, nested] {
            prop_assert_eq!(Json::parse(&doc.pretty()).ok(), Some(doc));
        }
        // One of them given again, anywhere after its first place, fails
        // the parse naming it.
        let mut repeated = pairs;
        repeated.insert(first + 1 + gap % (4 - first), (keys[first].clone(), Json::Null));
        let named = format!("duplicate key {:?}", keys[first]);
        let object = Json::Object(repeated);
        let nested = Json::Array(vec![value, object.clone()]);
        for doc in [object, nested] {
            let err = Json::parse(&doc.to_string()).unwrap_err();
            prop_assert_eq!(&err.message, &named);
        }
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
