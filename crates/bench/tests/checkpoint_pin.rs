//! Cross-version pin of the engine and world checkpoint bytes.
//!
//! The chaos and shard suites compare lineages within one build, so a
//! change that alters the snapshot encoding consistently on both sides
//! would pass them while breaking every snapshot written by an older
//! build. This test pins the FNV-1a of the `encode_engine` and
//! `encode_world` bytes of a fixed faulty tiny run at two pause points —
//! a unit boundary and a mid-unit event count — as literals, so any
//! change to what a checkpoint contains shows up here.

use dtnflow_bench::chaos::{outage_plan, ChaosInputs};
use dtnflow_router::FlowRouter;
use dtnflow_sim::{FaultPlan, ShardExec, ShardPlan, SimSession};
use dtnflow_snapshot::{fnv1a64, Writer};

/// `(engine, world)` digests paused at the boundary of unit 5.
const AT_UNIT_5: (u64, u64) = (0x9ead_797b_a982_c38c, 0x0dfe_6cf7_edd0_9a4c);
/// `(engine, world)` digests after 37 further events, which pause the
/// run partway through unit 6.
const AFTER_37_EVENTS: (u64, u64) = (0x853f_9299_6dd4_b38b, 0x6b6e_fbef_840a_2dc1);

fn digests(session: &SimSession<'_, FlowRouter>) -> (u64, u64) {
    let mut engine = Writer::new();
    session.encode_engine(&mut engine);
    let mut world = Writer::new();
    session.encode_world(&mut world);
    (fnv1a64(&engine.into_bytes()), fnv1a64(&world.into_bytes()))
}

#[test]
fn checkpoint_bytes_are_pinned_across_versions() {
    let base = ChaosInputs::tiny(7, FaultPlan::none());
    let plan = outage_plan(&base.trace, base.cfg.time_unit.secs(), 7);
    assert!(!plan.station_outages.is_empty());
    let inp = ChaosInputs { plan, ..base };
    for shards in [1, 2, 4, 8] {
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
            None,
            ShardPlan::contiguous(inp.trace.num_landmarks(), shards),
            ShardExec::new(shards),
        );
        assert!(session.run_to_unit(5), "tiny run ended before unit 5");
        let at_unit = digests(&session);
        assert!(session.step_events(37), "tiny run ended within 37 events");
        assert_ne!(session.now().secs() % inp.cfg.time_unit.secs(), 0);
        let mid_unit = digests(&session);
        assert_eq!(at_unit, AT_UNIT_5, "boundary checkpoint, shards={shards}");
        assert_eq!(
            mid_unit, AFTER_37_EVENTS,
            "mid-unit checkpoint, shards={shards}"
        );
    }
}
