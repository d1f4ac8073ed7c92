//! The differential battery proving the sharded engine byte-equal to the
//! sequential one (DESIGN.md §13): same CSV cells, same canonical
//! metrics + packet encoding, same observability report, for every
//! shard count and partition shape — including adversarial ones — and
//! across checkpoint/restore cycles that change the shard count
//! mid-run.
//!
//! Debug builds exercise the tier-1 tiny cell; the release-gated tests
//! at the bottom pin the full fig11 quick sweep against the committed
//! sequential goldens at shards ∈ {1, 2, 4, 8}.

use dtnflow_bench::chaos::{run_segment, run_straight, ChaosInputs, SegmentEnd};
use dtnflow_bench::experiments::{run_experiment_sharded, run_experiment_with_obs_sharded};
use dtnflow_obs::{Recorder, DEFAULT_RING_CAPACITY};
use dtnflow_router::FlowRouter;
use dtnflow_sim::{FaultPlan, ShardExec, ShardPlan, SimSession};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Run the tiny cell under an explicit shard plan (any shape, not just
/// the contiguous ones `ChaosInputs::shards` builds) and collect the
/// comparable artifacts: canonical outcome debug + snapshot JSON.
fn run_tiny_with_plan(inp: &ChaosInputs, plan: ShardPlan, exec: ShardExec) -> (String, String) {
    let mut router = FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    );
    let mut session = SimSession::start_sharded(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        &mut router,
        Some(Box::new(Recorder::new(DEFAULT_RING_CAPACITY))),
        plan,
        exec,
    );
    session.run_to_end();
    let out = session.finish();
    let state = format!("{:?}\n{:?}", out.metrics, out.packets);
    let obs = out
        .trace
        .and_then(Recorder::downcast)
        .map(|r| r.snapshot().to_json())
        .unwrap_or_default();
    (state, obs)
}

#[test]
fn tiny_cell_is_byte_identical_across_shard_counts() {
    let baseline = run_straight(&ChaosInputs::tiny(7, FaultPlan::none())).expect("straight run");
    assert!(baseline.conservation_holds());
    for shards in SHARD_COUNTS {
        let inp = ChaosInputs::tiny(7, FaultPlan::none()).with_shards(shards);
        let sharded = run_straight(&inp).expect("sharded run");
        assert!(
            sharded.matches(&baseline),
            "shards={shards} diverged:\n seq csv {}\n shard csv {}",
            baseline.csv_row,
            sharded.csv_row
        );
    }
}

#[test]
fn tiny_cell_with_faults_is_byte_identical_across_shard_counts() {
    let base = ChaosInputs::tiny(13, FaultPlan::none());
    let plan = dtnflow_bench::chaos::outage_plan(&base.trace, base.cfg.time_unit.secs(), 13);
    assert!(!plan.station_outages.is_empty());
    let inp = ChaosInputs { plan, ..base };
    let baseline = run_straight(&inp).expect("straight run");
    for shards in [2, 8] {
        let sharded_inp = ChaosInputs {
            plan: inp.plan.clone(),
            ..ChaosInputs::tiny(13, FaultPlan::none()).with_shards(shards)
        };
        let sharded = run_straight(&sharded_inp).expect("sharded run");
        assert!(
            sharded.matches(&baseline),
            "faulty run diverged at shards={shards}"
        );
    }
}

/// Adversarial partition maps: everything piled on one shard of many,
/// a reversed striping, and more shards than landmarks. All must still
/// reproduce the sequential artifacts exactly.
#[test]
fn adversarial_partitions_are_byte_identical() {
    let inp = ChaosInputs::tiny(7, FaultPlan::none());
    let n = inp.trace.num_landmarks();
    let seq = run_tiny_with_plan(&inp, ShardPlan::single(n), ShardExec::sequential());
    let plans = [
        // All landmarks on the last shard of eight; seven shards idle.
        ShardPlan::from_assignment(vec![7; n], 8).expect("valid plan"),
        // Reverse striping: landmark i on shard (n - 1 - i) % 3.
        ShardPlan::from_assignment((0..n).map(|i| (n - 1 - i) % 3).collect(), 3)
            .expect("valid plan"),
        // Far more shards than landmarks.
        ShardPlan::contiguous(n, 16),
        ShardPlan::round_robin(n, 5),
    ];
    for plan in plans {
        let shards = plan.num_shards();
        let groups = format!("{:?}", plan.groups());
        let got = run_tiny_with_plan(&inp, plan, ShardExec::new(shards));
        assert_eq!(
            got, seq,
            "adversarial plan diverged (shards={shards}, groups={groups})"
        );
    }
}

/// Checkpoints are shard-count-agnostic: a run checkpointed under one
/// shard count restores under any other and still reproduces the
/// uninterrupted sequential run byte for byte.
#[test]
fn checkpoint_and_restore_across_shard_counts_is_byte_identical() {
    let baseline = run_straight(&ChaosInputs::tiny(7, FaultPlan::none())).expect("straight run");
    let m = ChaosInputs::tiny(7, FaultPlan::none()).max_unit();
    for (ckpt_shards, resume_shards) in [(1, 8), (8, 1), (2, 4), (4, 2)] {
        let writer = ChaosInputs::tiny(7, FaultPlan::none()).with_shards(ckpt_shards);
        let bytes = match run_segment(&writer, None, Some(m / 2)).expect("segment runs") {
            SegmentEnd::Paused(b) => b,
            SegmentEnd::Finished(_) => panic!("tiny run ended before unit {}", m / 2),
        };
        let reader = ChaosInputs::tiny(7, FaultPlan::none()).with_shards(resume_shards);
        let art = match run_segment(&reader, Some(&bytes), None).expect("resume runs") {
            SegmentEnd::Finished(a) => a,
            SegmentEnd::Paused(_) => panic!("unkilled resume paused"),
        };
        assert!(art.conservation_holds());
        assert!(
            art.matches(&baseline),
            "checkpoint at shards={ckpt_shards}, restore at shards={resume_shards} diverged"
        );
    }
}

// ---- release-gated full-scale differentials ---------------------------

const GOLDENS: [(&str, &str); 4] = [
    ("fig11a", include_str!("goldens/fig11a_quick.csv")),
    ("fig11b", include_str!("goldens/fig11b_quick.csv")),
    ("fig11c", include_str!("goldens/fig11c_quick.csv")),
    ("fig11d", include_str!("goldens/fig11d_quick.csv")),
];

/// The acceptance differential: the fig11 quick sweep at every shard
/// count reproduces the committed *sequential* goldens byte for byte.
#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn fig11_quick_matches_sequential_goldens_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        let tables = run_experiment_sharded("fig11", true, shards);
        for (id, want) in GOLDENS {
            let table = tables
                .iter()
                .find(|t| t.id == id)
                .unwrap_or_else(|| panic!("fig11 produced no table `{id}`"));
            let got = table.to_csv();
            assert!(
                got == want,
                "table `{id}` at shards={shards} drifted from the sequential \
                 golden:\n--- golden\n{want}\n--- got\n{got}"
            );
        }
    }
}

/// Observability must be equally shard-blind: per-cell snapshots of the
/// traced fig11 sweep are identical between shards=1 and shards=4.
#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn fig11_quick_obs_snapshots_are_shard_blind() {
    let (seq_tables, seq_cells) = run_experiment_with_obs_sharded("fig11", true, 1);
    let (shd_tables, shd_cells) = run_experiment_with_obs_sharded("fig11", true, 4);
    for (a, b) in seq_tables.iter().zip(&shd_tables) {
        assert_eq!(a.to_csv(), b.to_csv(), "table {} diverged", a.id);
    }
    assert_eq!(seq_cells.len(), shd_cells.len());
    for (a, b) in seq_cells.iter().zip(&shd_cells) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.snapshot.to_json(),
            b.snapshot.to_json(),
            "snapshot for cell {} diverged",
            a.label
        );
    }
}
