//! Trace tooling for the DTN-FLOW workspace.
//!
//! ```text
//! trace-tool gen <campus|bus|deployment> [--seed N] [--out FILE]
//! trace-tool stats <FILE|campus|bus|deployment>
//! trace-tool validate <FILE>
//! trace-tool predict <FILE|campus|bus|deployment> [--max-k K]
//! ```
//!
//! `gen` writes a trace in the v1 text format; `stats` prints the Table-I
//! style summary plus the busiest landmarks and links; `validate` parses
//! a file and reports problems; `predict` evaluates the order-k and
//! back-off predictors on the trace (the Fig. 6 analysis for your data).

use dtnflow_core::time::DAY;
use dtnflow_mobility::synth::bus::{BusConfig, BusModel};
use dtnflow_mobility::synth::campus::{CampusConfig, CampusModel};
use dtnflow_mobility::synth::deployment::{DeploymentConfig, DeploymentModel};
use dtnflow_mobility::{io, stats, Trace};
use dtnflow_predictor::markov::MAX_ORDER;
use dtnflow_predictor::{accuracy_five_num, evaluate_fallback, evaluate_order_k};
use std::process::exit;
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace-tool gen <campus|bus|deployment> [--seed N] [--out FILE]\n  \
         trace-tool stats <FILE|campus|bus|deployment>\n  \
         trace-tool validate <FILE>\n  \
         trace-tool predict <FILE|campus|bus|deployment> [--max-k K]"
    );
    exit(2);
}

fn builtin(name: &str, seed: Option<u64>) -> Option<Trace> {
    match name {
        "campus" => Some(
            CampusModel::new(CampusConfig {
                seed: seed.unwrap_or(CampusConfig::default().seed),
                ..CampusConfig::default()
            })
            .generate(),
        ),
        "bus" => Some(
            BusModel::new(BusConfig {
                seed: seed.unwrap_or(BusConfig::default().seed),
                ..BusConfig::default()
            })
            .generate(),
        ),
        "deployment" => Some(
            DeploymentModel::new(DeploymentConfig {
                seed: seed.unwrap_or(DeploymentConfig::default().seed),
                ..DeploymentConfig::default()
            })
            .generate(),
        ),
        _ => None,
    }
}

fn load(source: &str, seed: Option<u64>) -> Trace {
    if let Some(t) = builtin(source, seed) {
        return t;
    }
    let text = std::fs::read_to_string(source).unwrap_or_else(|e| {
        eprintln!("cannot read {source}: {e}");
        exit(1);
    });
    io::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {source}: {e}");
        exit(1);
    })
}

/// The value after flag `name`, if the flag is given. A flag without a
/// value, or with one that does not parse as `T`, is a usage error.
fn flag<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => Some(v),
        _ => {
            eprintln!("{name} needs a valid value");
            usage()
        }
    }
}

fn cmd_gen(args: &[String]) {
    let Some(kind) = args.first() else { usage() };
    let seed = flag(args, "--seed");
    let Some(trace) = builtin(kind, seed) else {
        eprintln!("unknown generator `{kind}` (campus|bus|deployment)");
        exit(2);
    };
    let text = io::to_text(&trace);
    match flag::<String>(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
            eprintln!(
                "wrote {path}: {} nodes, {} landmarks, {} visits",
                trace.num_nodes(),
                trace.num_landmarks(),
                trace.visits().len()
            );
        }
        None => print!("{text}"),
    }
}

fn cmd_stats(args: &[String]) {
    let Some(source) = args.first() else { usage() };
    let trace = load(source, None);
    let c = stats::characteristics(&trace);
    println!("trace     {}", c.name);
    println!("nodes     {}", c.nodes);
    println!("landmarks {}", c.landmarks);
    println!("duration  {:.1} days", c.duration_days);
    println!("visits    {}", c.visits);
    println!(
        "transits  {} ({:.2} per node per day)",
        c.transits, c.transit_rate
    );

    println!("\nmost visited landmarks:");
    for (lm, visits) in stats::landmark_popularity(&trace).into_iter().take(8) {
        let conc = stats::visit_concentration(&trace, lm, 0.2);
        println!(
            "  {lm}: {visits} visits ({:.0}% from the top-20% of nodes)",
            conc * 100.0
        );
    }

    let unit = DAY;
    let b = stats::link_bandwidths(&trace, unit);
    let links = b.ordered_links();
    println!("\nbusiest transit links (per day):");
    for (from, to, bw) in links.iter().take(8) {
        println!(
            "  {from} -> {to}: {bw:.2} (reverse {:.2})",
            b.get(*to, *from)
        );
    }
    if !links.is_empty() {
        println!(
            "\nmatching-link symmetry correlation: {:.3}",
            b.matching_link_symmetry()
        );
    }
}

fn cmd_validate(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    match io::from_text(&text) {
        Ok(t) => println!(
            "OK: {} nodes, {} landmarks, {} visits, {:.1} days",
            t.num_nodes(),
            t.num_landmarks(),
            t.visits().len(),
            t.duration().as_days()
        ),
        Err(e) => {
            eprintln!("INVALID: {e}");
            exit(1);
        }
    }
}

fn cmd_predict(args: &[String]) {
    let Some(source) = args.first() else { usage() };
    let max_k: usize = flag(args, "--max-k").unwrap_or(3);
    if !(1..=MAX_ORDER).contains(&max_k) {
        eprintln!("--max-k must be in 1..={MAX_ORDER}");
        usage();
    }
    let trace = load(source, None);
    println!("order-k Markov predictor accuracy on `{}`:", trace.name());
    for k in 1..=max_k {
        let r = evaluate_order_k(&trace, k);
        let mean = r.mean_node_accuracy().unwrap_or(0.0);
        println!("  k={k}: mean {mean:.3} ({} attempts)", r.attempts);
    }
    let fb = evaluate_fallback(&trace, max_k);
    println!(
        "  back-off (max k={max_k}): mean {:.3}",
        fb.mean_node_accuracy().unwrap_or(0.0)
    );
    if let Some(f) = accuracy_five_num(&evaluate_order_k(&trace, 1)) {
        println!(
            "  per-node (k=1): min {:.2} | q1 {:.2} | mean {:.2} | q3 {:.2} | max {:.2}",
            f.min, f.q1, f.mean, f.q3, f.max
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        _ => usage(),
    }
}
