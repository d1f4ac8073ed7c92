//! A timing decorator for [`Router`]: it forwards every callback to the
//! wrapped router unchanged and charges the callback's wall time and a
//! call count to the callback's kind.
//!
//! The engine sees the decorator as the router, so it must forward every
//! trait method, including `uses_stations` (which picks station mode)
//! and `on_time_unit_sharded` (which DTN-FLOW overrides). The test below
//! checks that a decorated run is byte-equal to a bare one.

use dtnflow_bench::timing::Stopwatch;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_sim::{Router, Sharding, World};

/// The callback kinds time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Arrive,
    Depart,
    Encounter,
    Generate,
    Unit,
    Observe,
    Timer,
    /// Station down/up and node fail/recover hooks.
    Fault,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Arrive,
        Kind::Depart,
        Kind::Encounter,
        Kind::Generate,
        Kind::Unit,
        Kind::Observe,
        Kind::Timer,
        Kind::Fault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Arrive => "arrive",
            Kind::Depart => "depart",
            Kind::Encounter => "encounter",
            Kind::Generate => "generate",
            Kind::Unit => "unit",
            Kind::Observe => "observe",
            Kind::Timer => "timer",
            Kind::Fault => "fault",
        }
    }
}

/// Call counts and wall seconds per callback kind.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    calls: [u64; Kind::ALL.len()],
    secs: [f64; Kind::ALL.len()],
}

impl Profile {
    pub fn calls(&self, k: Kind) -> u64 {
        self.calls[k as usize]
    }

    pub fn secs(&self, k: Kind) -> f64 {
        self.secs[k as usize]
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    pub fn add(&mut self, other: &Profile) {
        for k in 0..Kind::ALL.len() {
            self.calls[k] += other.calls[k];
            self.secs[k] += other.secs[k];
        }
    }
}

/// `inner`, with every callback timed into a [`Profile`].
pub struct Timed<'r, R: Router + ?Sized> {
    inner: &'r mut R,
    profile: Profile,
}

impl<'r, R: Router + ?Sized> Timed<'r, R> {
    pub fn new(inner: &'r mut R) -> Self {
        Timed {
            inner,
            profile: Profile::default(),
        }
    }

    pub fn into_profile(self) -> Profile {
        self.profile
    }

    fn time<T>(&mut self, kind: Kind, f: impl FnOnce(&mut R) -> T) -> T {
        let sw = Stopwatch::start();
        let out = f(self.inner);
        let k = kind as usize;
        self.profile.secs[k] += sw.elapsed_secs();
        self.profile.calls[k] += 1;
        out
    }
}

impl<R: Router + ?Sized> Router for Timed<'_, R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn uses_stations(&self) -> bool {
        self.inner.uses_stations()
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.time(Kind::Arrive, |r| r.on_arrive(world, node, lm));
    }

    fn on_depart(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.time(Kind::Depart, |r| r.on_depart(world, node, lm));
    }

    fn on_encounter(
        &mut self,
        world: &mut World,
        newcomer: NodeId,
        present: NodeId,
        lm: LandmarkId,
    ) {
        self.time(Kind::Encounter, |r| {
            r.on_encounter(world, newcomer, present, lm)
        });
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        self.time(Kind::Generate, |r| r.on_packet_generated(world, pkt));
    }

    fn on_time_unit(&mut self, world: &mut World, unit: u64) {
        self.time(Kind::Unit, |r| r.on_time_unit(world, unit));
    }

    fn on_time_unit_sharded(&mut self, world: &mut World, unit: u64, shards: &Sharding<'_>) {
        self.time(Kind::Unit, |r| r.on_time_unit_sharded(world, unit, shards));
    }

    fn on_observe(&mut self, world: &mut World, idx: usize) {
        self.time(Kind::Observe, |r| r.on_observe(world, idx));
    }

    fn on_timer(&mut self, world: &mut World, token: u64) {
        self.time(Kind::Timer, |r| r.on_timer(world, token));
    }

    fn on_station_down(&mut self, world: &mut World, lm: LandmarkId) {
        self.time(Kind::Fault, |r| r.on_station_down(world, lm));
    }

    fn on_station_up(&mut self, world: &mut World, lm: LandmarkId) {
        self.time(Kind::Fault, |r| r.on_station_up(world, lm));
    }

    fn on_node_fail(&mut self, world: &mut World, node: NodeId, at: Option<LandmarkId>) {
        self.time(Kind::Fault, |r| r.on_node_fail(world, node, at));
    }

    fn on_node_recover(&mut self, world: &mut World, node: NodeId) {
        self.time(Kind::Fault, |r| r.on_node_recover(world, node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome_state;
    use dtnflow_bench::chaos::{outage_plan, ChaosInputs};
    use dtnflow_bench::Method;
    use dtnflow_router::{FlowConfig, FlowRouter};
    use dtnflow_sim::{run_with_faults_sharded, FaultPlan};

    fn bare_and_timed(
        inp: &ChaosInputs,
        make: &dyn Fn() -> Box<dyn Router>,
    ) -> (Vec<u8>, Vec<u8>, Profile) {
        let run = |r: &mut dyn Router| {
            run_with_faults_sharded(&inp.trace, &inp.cfg, &inp.workload, &inp.plan, r, 1)
        };
        let mut bare = make();
        let bare_state = outcome_state(&run(bare.as_mut()));
        let mut inner = make();
        let mut timed = Timed::new(inner.as_mut());
        let timed_state = outcome_state(&run(&mut timed));
        (bare_state, timed_state, timed.into_profile())
    }

    #[test]
    fn decorated_runs_are_byte_equal_to_bare_runs() {
        for seed in [1, 7, 0xF11] {
            let base = ChaosInputs::tiny(seed, FaultPlan::none());
            let unit = base.cfg.time_unit.secs();
            let plan = outage_plan(&base.trace, unit, seed);
            let faulty = ChaosInputs {
                plan,
                ..ChaosInputs::tiny(seed, FaultPlan::none())
            };
            let (n, l) = (base.trace.num_nodes(), base.trace.num_landmarks());
            let degraded = || -> Box<dyn Router> {
                Box::new(FlowRouter::new(FlowConfig::with_degradation(), n, l))
            };
            let (bare, timed, prof) = bare_and_timed(&faulty, &degraded);
            assert_eq!(bare, timed, "degraded DTN-FLOW under faults, seed {seed}");
            assert!(prof.calls(Kind::Fault) > 0 && prof.calls(Kind::Unit) > 0);
            for m in Method::ALL {
                let make = || m.build(n, l);
                let (bare, timed, prof) = bare_and_timed(&base, &make);
                assert_eq!(bare, timed, "{} seed {seed}", m.name());
                assert!(prof.calls(Kind::Arrive) > 0 && prof.calls(Kind::Generate) > 0);
            }
        }
    }
}
