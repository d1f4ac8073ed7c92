//! Plain-text trace serialization.
//!
//! Lets externally collected traces (DART/DNET-style association logs) be
//! loaded into the simulator, and synthetic traces be saved for inspection.
//!
//! Format (line-oriented, `#` comments allowed):
//!
//! ```text
//! dtn-trace v1
//! name campus
//! nodes 320
//! landmarks 159
//! pos 0 12.5 340.0
//! ...one pos line per landmark...
//! v 17 4 1000 1600      # node landmark start end  (seconds)
//! ```

use crate::trace::{Trace, Visit};
use dtnflow_core::geometry::Point;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::time::SimTime;
use std::fmt::Write as _;

/// Largest `landmarks` count a trace file may declare: [`LandmarkId`] is
/// a `u16` index, so ids `0..=u16::MAX`.
pub const MAX_LANDMARKS: usize = 1 << 16;
/// Largest `nodes` count a trace file may declare: [`NodeId`] is a `u32`
/// index, so ids `0..=u32::MAX`.
const MAX_NODES: u64 = 1 << 32;

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Missing or wrong magic line.
    BadHeader,
    /// A malformed line, with its 1-based number and a description.
    BadLine { line: usize, what: String },
    /// The parsed records failed trace validation.
    Invalid(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing `dtn-trace v1` header"),
            ParseError::BadLine { line, what } => write!(f, "line {line}: {what}"),
            ParseError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a trace to the v1 text format.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("dtn-trace v1\n");
    let _ = writeln!(out, "name {}", trace.name());
    let _ = writeln!(out, "nodes {}", trace.num_nodes());
    let _ = writeln!(out, "landmarks {}", trace.num_landmarks());
    for (i, p) in trace.positions().iter().enumerate() {
        let _ = writeln!(out, "pos {i} {} {}", p.x, p.y);
    }
    for v in trace.visits() {
        let _ = writeln!(
            out,
            "v {} {} {} {}",
            v.node.index(),
            v.landmark.index(),
            v.start.secs(),
            v.end.secs()
        );
    }
    out
}

/// Parse the v1 text format back into a validated [`Trace`].
pub fn from_text(text: &str) -> Result<Trace, ParseError> {
    let mut lines = text.lines().enumerate();
    let header = lines
        .next()
        .map(|(_, l)| l.trim())
        .ok_or(ParseError::BadHeader)?;
    if header != "dtn-trace v1" {
        return Err(ParseError::BadHeader);
    }

    let mut name = String::from("unnamed");
    let mut nodes = 0usize;
    let mut landmarks = 0usize;
    let mut positions: Vec<(usize, Point)> = Vec::new();
    let mut visits: Vec<Visit> = Vec::new();

    let bad = |line: usize, what: &str| ParseError::BadLine {
        line: line + 1,
        what: what.to_string(),
    };

    for (ln, raw) in lines {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        // A trimmed non-empty line always yields a first token, but this
        // parser handles foreign input — surface a typed error instead of
        // relying on that invariant with a panic.
        let Some(tag) = it.next() else {
            return Err(bad(ln, "line has no tag token"));
        };
        match tag {
            "name" => {
                name = it.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return Err(bad(ln, "name requires a value"));
                }
            }
            "nodes" => {
                let n: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "nodes requires a count"))?;
                if n > MAX_NODES {
                    return Err(bad(ln, &format!("nodes {n} exceeds {MAX_NODES}")));
                }
                nodes = usize::try_from(n).map_err(|_| bad(ln, "nodes exceeds usize"))?;
            }
            "landmarks" => {
                landmarks = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "landmarks requires a count"))?;
                if landmarks > MAX_LANDMARKS {
                    return Err(bad(
                        ln,
                        &format!("landmarks {landmarks} exceeds {MAX_LANDMARKS}"),
                    ));
                }
            }
            "pos" => {
                let i: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "pos requires an index"))?;
                let x: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "pos requires x"))?;
                let y: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(ln, "pos requires y"))?;
                positions.push((i, Point::new(x, y)));
            }
            "v" => {
                let mut next_u64 = || -> Option<u64> { it.next().and_then(|s| s.parse().ok()) };
                let (n, l, s, e) = (next_u64(), next_u64(), next_u64(), next_u64());
                let (Some(n), Some(l), Some(s), Some(e)) = (n, l, s, e) else {
                    return Err(bad(ln, "v requires: node landmark start end"));
                };
                let node = u32::try_from(n).map_err(|_| bad(ln, "v node id exceeds u32"))?;
                let lm = u16::try_from(l).map_err(|_| bad(ln, "v landmark id exceeds u16"))?;
                visits.push(Visit::new(
                    NodeId(node),
                    LandmarkId(lm),
                    SimTime(s),
                    SimTime(e),
                ));
            }
            other => return Err(bad(ln, &format!("unknown tag `{other}`"))),
        }
    }

    positions.sort_by_key(|&(i, _)| i);
    let exact =
        positions.len() == landmarks && positions.iter().enumerate().all(|(k, &(i, _))| i == k);
    if !exact {
        return Err(ParseError::Invalid(format!(
            "positions must cover 0..{landmarks} exactly once"
        )));
    }
    let pos: Vec<Point> = positions.into_iter().map(|(_, p)| p).collect();

    Trace::new(name, nodes, landmarks, pos, visits).map_err(|e| ParseError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample trace",
            2,
            2,
            vec![Point::new(0.0, 0.0), Point::new(10.0, 20.0)],
            vec![
                Visit::new(NodeId(0), LandmarkId(0), SimTime(0), SimTime(100)),
                Visit::new(NodeId(1), LandmarkId(1), SimTime(50), SimTime(150)),
                Visit::new(NodeId(0), LandmarkId(1), SimTime(200), SimTime(300)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let text = to_text(&t);
        let back = from_text(&text).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.num_nodes(), t.num_nodes());
        assert_eq!(back.num_landmarks(), t.num_landmarks());
        assert_eq!(back.positions(), t.positions());
        assert_eq!(back.visits(), t.visits());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "dtn-trace v1\n# header comment\nname x\n\nnodes 1\nlandmarks 1\npos 0 0 0\nv 0 0 0 10 # trailing comment\n";
        let t = from_text(text).unwrap();
        assert_eq!(t.visits().len(), 1);
        assert_eq!(t.name(), "x");
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(from_text("nope\n"), Err(ParseError::BadHeader));
        assert_eq!(from_text(""), Err(ParseError::BadHeader));
    }

    #[test]
    fn rejects_malformed_lines() {
        let text = "dtn-trace v1\nv 0 0 0\n";
        match from_text(text) {
            Err(ParseError::BadLine { line: 2, .. }) => {}
            other => panic!("expected BadLine, got {other:?}"),
        }
        let text = "dtn-trace v1\nfrobnicate 1\n";
        assert!(matches!(from_text(text), Err(ParseError::BadLine { .. })));
    }

    #[test]
    fn rejects_out_of_range_ids_and_counts() {
        let base = "dtn-trace v1\nnodes 1\nlandmarks 1\npos 0 0 0\n";
        for (extra, line) in [
            ("v 0 70000 0 10\n", 5),
            ("v 8589934592 0 0 10\n", 5),
            ("v 0 0 0 99999999999999999999\n", 5),
        ] {
            match from_text(&format!("{base}{extra}")) {
                Err(ParseError::BadLine { line: l, .. }) => assert_eq!(l, line, "{extra}"),
                other => panic!("{extra}: expected BadLine, got {other:?}"),
            }
        }
        for (text, line) in [
            ("dtn-trace v1\nlandmarks 65537\n", 2),
            ("dtn-trace v1\nlandmarks 18446744073709551615\n", 2),
            ("dtn-trace v1\nnodes 4294967297\n", 2),
        ] {
            match from_text(text) {
                Err(ParseError::BadLine { line: l, .. }) => assert_eq!(l, line, "{text}"),
                other => panic!("{text}: expected BadLine, got {other:?}"),
            }
        }
        // The largest ids and counts still parse as far as validation.
        let text = "dtn-trace v1\nnodes 1\nlandmarks 65536\nv 0 65535 0 10\n";
        assert!(matches!(from_text(text), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn rejects_missing_positions() {
        let text = "dtn-trace v1\nname x\nnodes 1\nlandmarks 2\npos 0 0 0\nv 0 0 0 10\n";
        assert!(matches!(from_text(text), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn rejects_invalid_visits() {
        // end <= start fails trace validation.
        let text = "dtn-trace v1\nname x\nnodes 1\nlandmarks 1\npos 0 0 0\nv 0 0 10 10\n";
        assert!(matches!(from_text(text), Err(ParseError::Invalid(_))));
    }
}
