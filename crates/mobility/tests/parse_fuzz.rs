//! `io::from_text` takes foreign trace files: whatever the lines hold,
//! it returns a trace or a typed `ParseError`, and never panics.

use dtnflow_mobility::io::{self, ParseError};
use proptest::prelude::*;

/// Numeric tokens around every boundary the parser converts across:
/// the `u16` landmark and `u32` node id spaces, the declared-count
/// bounds, `u64` overflow, signs, and non-finite floats.
const EDGES: [&str; 19] = [
    "65535",
    "65536",
    "65537",
    "70000",
    "4294967295",
    "4294967296",
    "4294967297",
    "8589934592",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "-0",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "0x10",
    "#",
];

/// Words of the format and a few that are not.
const WORDS: [&str; 9] = [
    "dtn-trace",
    "v1",
    "name",
    "nodes",
    "landmarks",
    "pos",
    "v",
    "x",
    "",
];

fn pick(list: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..list.len()).prop_map(move |i| list[i].to_string())
}

fn number() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => (0u64..8).prop_map(|n| n.to_string()),
        1 => (0u64..100_000).prop_map(|n| n.to_string()),
        2 => pick(&EDGES),
    ]
}

/// Arbitrary characters, control and non-ASCII ones included.
fn noise() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x1_0000, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn token() -> impl Strategy<Value = String> {
    prop_oneof![4 => number(), 2 => pick(&WORDS), 1 => noise()]
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        // Declared counts. `nodes` stays small: a count inside the id
        // space is valid, and `Trace::new` allocates per-node state for
        // it, so a lucky well-formed soup declaring 2^32 nodes would try
        // to allocate ~100 GB. The count bound itself is covered by the
        // unit tests in `io.rs`.
        1 => (0u64..6).prop_map(|n| format!("nodes {n}")),
        1 => number().prop_map(|n| format!("landmarks {n}")),
        1 => token().prop_map(|n| format!("name {n}")),
        3 => proptest::collection::vec(number(), 0..4)
            .prop_map(|t| format!("pos {}", t.join(" "))),
        4 => proptest::collection::vec(number(), 0..6)
            .prop_map(|t| format!("v {}", t.join(" "))),
        1 => proptest::collection::vec(token(), 0..6).prop_map(|t| t.join(" ")),
        1 => noise(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2_000, ..ProptestConfig::default() })]
    #[test]
    fn from_text_never_panics(
        header in prop_oneof![9 => Just("dtn-trace v1".to_string()), 1 => noise()],
        lines in proptest::collection::vec(line(), 0..24),
    ) {
        let text = format!("{header}\n{}\n", lines.join("\n"));
        match io::from_text(&text) {
            Ok(trace) => prop_assert!(trace.num_landmarks() <= io::MAX_LANDMARKS),
            Err(ParseError::BadLine { line, .. }) => {
                prop_assert!(line >= 2 && line <= text.lines().count());
            }
            Err(ParseError::BadHeader | ParseError::Invalid(_)) => {}
        }
    }
}
