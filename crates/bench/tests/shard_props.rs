//! Schedule-fuzz properties for the shard runtime (DESIGN.md §13):
//! arbitrary worlds (seeds), fault plans, shard counts, partition maps
//! and kill schedules — the sharded engine must reproduce the
//! sequential artifacts byte for byte in every draw, including runs
//! whose shard count changes at every checkpoint/restore boundary and
//! runs checkpointed mid-unit.

use dtnflow_bench::chaos::{run_segment, run_straight, ChaosInputs, SegmentEnd};
use dtnflow_obs::{Recorder, DEFAULT_RING_CAPACITY};
use dtnflow_router::FlowRouter;
use dtnflow_sim::{FaultConfig, FaultPlan, ShardExec, ShardPlan, SimSession};
use dtnflow_snapshot::{Reader, Writer};
use proptest::prelude::*;

/// A seeded fault plan mixing outages and churn for the tiny trace.
fn fuzz_plan(trace: &dtnflow_mobility::Trace, outages: bool, churn: bool, seed: u64) -> FaultPlan {
    let cfg = FaultConfig {
        station_outage_duty: if outages { 0.2 } else { 0.0 },
        mean_outage_secs: 2.0 * 86_400.0,
        node_failures_per_day: if churn { 0.05 } else { 0.0 },
        seed,
        ..FaultConfig::default()
    };
    FaultPlan::generate(&cfg, trace)
}

fn tiny_with(seed: u64, outages: bool, churn: bool, fault_seed: u64) -> ChaosInputs {
    let base = ChaosInputs::tiny(seed, FaultPlan::none());
    let plan = fuzz_plan(&base.trace, outages, churn, fault_seed);
    ChaosInputs { plan, ..base }
}

/// Run under an explicit (possibly adversarial) shard plan and collect
/// the comparable artifacts.
fn artifacts_with_plan(inp: &ChaosInputs, plan: ShardPlan, exec: ShardExec) -> (String, String) {
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

/// Outcome state (metrics + packets, canonical debug) without any
/// observability sink attached — the unobserved comparable for the
/// mid-unit checkpoint property.
fn bare_state(session: SimSession<'_, FlowRouter>) -> String {
    let out = session.finish();
    format!("{:?}\n{:?}", out.metrics, out.packets)
}

fn start_bare<'a>(
    inp: &'a ChaosInputs,
    router: &'a mut FlowRouter,
    shards: usize,
) -> SimSession<'a, FlowRouter> {
    SimSession::start_sharded(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        router,
        None,
        ShardPlan::contiguous(inp.trace.num_landmarks(), shards),
        ShardExec::new(shards),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any (world seed, fault mix, shard count) draw: the sharded run
    /// reproduces the sequential one byte for byte.
    #[test]
    fn any_world_and_shard_count_is_byte_identical(
        seed in 1u64..64,
        outages in any::<bool>(),
        churn in any::<bool>(),
        fault_seed in 1u64..64,
        shards in 2usize..9,
    ) {
        let seq = tiny_with(seed, outages, churn, fault_seed);
        let baseline = run_straight(&seq).expect("straight run");
        prop_assert!(baseline.conservation_holds());
        let sharded = run_straight(&seq.with_shards(shards)).expect("sharded run");
        prop_assert!(
            sharded.matches(&baseline),
            "seed={} outages={} churn={} shards={} diverged",
            seed, outages, churn, shards
        );
    }

    /// Any partition map — balanced, skewed, or degenerate — reproduces
    /// the sequential artifacts.
    #[test]
    fn any_partition_map_is_byte_identical(
        seed in 1u64..64,
        assignment in proptest::collection::vec(0usize..4, 3),
    ) {
        let inp = ChaosInputs::tiny(seed, FaultPlan::none());
        let n = inp.trace.num_landmarks();
        prop_assert_eq!(assignment.len(), n);
        let seq = artifacts_with_plan(&inp, ShardPlan::single(n), ShardExec::sequential());
        let plan = ShardPlan::from_assignment(assignment.clone(), 4).expect("valid plan");
        let got = artifacts_with_plan(&inp, plan, ShardExec::new(4));
        prop_assert_eq!(got, seq, "assignment {:?} diverged", assignment);
    }

    /// Kill schedules whose every segment runs under a different shard
    /// count: checkpoints are shard-agnostic, so the chain still
    /// reproduces the uninterrupted sequential run.
    #[test]
    fn shard_count_hopping_across_restores_is_byte_identical(
        seed in 1u64..64,
        mut kills in proptest::collection::vec(1u64..19, 1..4),
        shard_seq in proptest::collection::vec(1usize..9, 4),
    ) {
        kills.sort_unstable();
        let baseline =
            run_straight(&ChaosInputs::tiny(seed, FaultPlan::none())).expect("straight run");
        let mut snap: Option<Vec<u8>> = None;
        let mut finished = None;
        for (i, &unit) in kills.iter().enumerate() {
            let inp = ChaosInputs::tiny(seed, FaultPlan::none()).with_shards(shard_seq[i]);
            match run_segment(&inp, snap.as_deref(), Some(unit)).expect("segment") {
                SegmentEnd::Paused(bytes) => snap = Some(bytes),
                SegmentEnd::Finished(art) => { finished = Some(art); break; }
            }
        }
        let art = match finished {
            Some(a) => a,
            None => {
                let inp = ChaosInputs::tiny(seed, FaultPlan::none())
                    .with_shards(shard_seq[kills.len()]);
                match run_segment(&inp, snap.as_deref(), None).expect("final segment") {
                    SegmentEnd::Finished(a) => a,
                    SegmentEnd::Paused(_) => panic!("unkilled final segment paused"),
                }
            }
        };
        prop_assert!(art.conservation_holds());
        prop_assert!(
            art.matches(&baseline),
            "kills {:?} under shard counts {:?} diverged",
            kills, shard_seq
        );
    }

    /// Mid-unit checkpoint property: pause anywhere — after any event
    /// count — checkpoint, restore under a different shard count, and
    /// the finished run matches the straight one; the engine cursor
    /// itself round-trips byte-identically through the restore.
    #[test]
    fn mid_unit_checkpoint_restores_byte_identically(
        seed in 1u64..64,
        steps in 1usize..600,
        ckpt_shards in 1usize..9,
        resume_shards in 1usize..9,
    ) {
        let inp = ChaosInputs::tiny(seed, FaultPlan::none());
        let mut straight_router = FlowRouter::new(
            inp.flow.clone(),
            inp.trace.num_nodes(),
            inp.trace.num_landmarks(),
        );
        let mut straight = start_bare(&inp, &mut straight_router, 1);
        straight.run_to_end();
        let want = bare_state(straight);

        let mut router = FlowRouter::new(
            inp.flow.clone(),
            inp.trace.num_nodes(),
            inp.trace.num_landmarks(),
        );
        let mut session = start_bare(&inp, &mut router, ckpt_shards);
        session.step_events(steps);
        let mut ew = Writer::new();
        session.encode_engine(&mut ew);
        let engine_bytes = ew.into_bytes();
        let mut ww = Writer::new();
        session.encode_world(&mut ww);
        let world_bytes = ww.into_bytes();
        let mut rw = Writer::new();
        session.router().save_state(&mut rw);
        let router_bytes = rw.into_bytes();
        drop(session);

        let mut rr = Reader::new(&router_bytes);
        let mut restored_router = FlowRouter::restore_state(
            &mut rr,
            inp.flow.clone(),
            inp.trace.num_nodes(),
            inp.trace.num_landmarks(),
        ).expect("router restores");
        rr.finish("router").expect("router bytes consumed");
        let mut er = Reader::new(&engine_bytes);
        let mut wr = Reader::new(&world_bytes);
        let mut resumed = SimSession::resume_sharded(
            &inp.trace,
            &inp.cfg,
            &inp.workload,
            &inp.plan,
            &mut restored_router,
            None,
            &mut er,
            &mut wr,
            ShardPlan::contiguous(inp.trace.num_landmarks(), resume_shards),
            ShardExec::new(resume_shards),
        ).expect("session resumes");
        er.finish("engine").expect("engine bytes consumed");
        wr.finish("world").expect("world bytes consumed");

        // The cursor is plan-agnostic: re-encoding the freshly resumed
        // engine reproduces the checkpointed bytes exactly.
        let mut ew2 = Writer::new();
        resumed.encode_engine(&mut ew2);
        prop_assert_eq!(
            ew2.into_bytes(), engine_bytes.clone(),
            "engine cursor did not round-trip (steps={}, {}->{} shards)",
            steps, ckpt_shards, resume_shards
        );

        resumed.run_to_end();
        let got = bare_state(resumed);
        prop_assert_eq!(
            got, want,
            "mid-unit checkpoint after {} events ({} -> {} shards) diverged",
            steps, ckpt_shards, resume_shards
        );
    }
}
