//! The DTN-FLOW router: the paper's §IV algorithm wired into the
//! simulator's event hooks.
//!
//! Responsibilities per event:
//!
//! * **arrival** — measure the transit for the bandwidth table, settle the
//!   node's previous prediction (accuracy tracking, §IV-D.4), deliver the
//!   carried routing table / bandwidth report / loop corrections, make the
//!   node's next prediction, run the uplink (packets the node should hand
//!   to this station, §IV-D.1/3 step 5), then the downlink (packets this
//!   station should hand to the node, §IV-D.3 steps 2–4), and arm the
//!   dead-end timer (§IV-E.1);
//! * **departure** — record the completed stay and snapshot the carried
//!   routing table + reverse-bandwidth report (§IV-C.1/2);
//! * **time unit** — Eq. 4 bandwidth smoothing, routing-table recompute,
//!   load-balance rate bookkeeping (§IV-E.3), station re-bucketing, and
//!   any scheduled loop injections (the Table VII experiment).

use crate::bandwidth::BandwidthMatrix;
use crate::config::{FlowConfig, LoopInjection};
use crate::observer::{ObservationRow, TableObserver};
use crate::routing_table::{decode_opt_lm, encode_opt_lm, RoutingTable, StoredVector};
use dtnflow_core::dense::{DenseMap, DenseSet};
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::packet::PacketLoc;
use dtnflow_core::rankidx::{RankEntry, RankIndex};
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_predictor::{AccuracyTracker, MarkovPredictor, VisitHistory};
use dtnflow_sim::{
    EventBuffer, LossReason, Router, ShardBuffers, Sharding, SimEvent, TransferError, World,
    WorldView,
};
use dtnflow_snapshot::{Reader, SnapshotError, Writer};
use std::collections::BTreeSet;

/// Routing-table snapshot + control info a node carries between landmarks.
#[derive(Debug, Clone)]
struct Carried {
    from: LandmarkId,
    seq: u64,
    vector: Vec<f64>,
    entries: usize,
    /// Reverse-bandwidth report: `(addressee, B(addressee→from), unit)`.
    report: Option<(LandmarkId, f64, u64)>,
    corrections: Vec<Correction>,
}

/// A §IV-E.2 loop-correction notice, flooded among the loop members.
/// As it travels, each member appends its *current* delay claim for the
/// destination, so receivers get fresh distance-vector entries immediately
/// instead of waiting for the next periodic exchange ("immediately send
/// their updated distance vector … repeatedly until the next-hop landmark
/// remains unchanged").
#[derive(Debug, Clone, PartialEq)]
struct Correction {
    dest: LandmarkId,
    members: Vec<LandmarkId>,
    hops_left: u32,
    /// `(landmark, its current delay to dest)` — freshest claim per member.
    claims: Vec<(u16, f64)>,
}

/// Per-mobile-node router state.
struct NodeState {
    predictor: MarkovPredictor,
    accuracy: AccuracyTracker,
    history: VisitHistory,
    /// The prediction currently in force: (made at, predicted next, prob).
    predicted: Option<(LandmarkId, LandmarkId, f64)>,
    /// Where the node is and since when (while connected).
    arrival: Option<(LandmarkId, dtnflow_core::time::SimTime)>,
    last_landmark: Option<LandmarkId>,
    carried: Option<Carried>,
    /// Bumped on every arrive/depart; stale dead-end timers no-op.
    episode: u64,
}

/// One memoized [`choose_next_in`] result (DESIGN.md §14). Valid while
/// the owning table's `computed` stamp and the router-wide
/// `route_epoch` (bumped on `known_down` changes) both still match the
/// values the cell was filled under; `computed == u64::MAX` marks a
/// never-filled cell (a table's real stamp counts up from zero).
#[derive(Debug, Clone, Copy)]
struct RouteCacheCell {
    computed: u64,
    epoch: u64,
    next: Option<LandmarkId>,
    expected: f64,
    lb_diverted: bool,
    fellback: bool,
}

impl RouteCacheCell {
    const EMPTY: RouteCacheCell = RouteCacheCell {
        computed: u64::MAX,
        epoch: 0,
        next: None,
        expected: f64::INFINITY,
        lb_diverted: false,
        fellback: false,
    };
}

/// Per-landmark router state.
struct LandmarkState {
    rt: RoutingTable,
    /// Station packets waiting for a carrier toward a next-hop landmark.
    /// Bucket sets are cleared but never dropped on rebucket, so their
    /// storage is reused tick after tick.
    by_next_hop: DenseMap<LandmarkId, DenseSet<PacketId>>,
    /// Station packets indexed by final destination (direct-delivery
    /// opportunities, §IV-D.2).
    by_dst: DenseMap<LandmarkId, DenseSet<PacketId>>,
    /// Station packets addressed to a mobile node (§IV-E.4).
    by_dst_node: DenseMap<NodeId, DenseSet<PacketId>>,
    pending_corrections: Vec<(u64, Correction)>,
    seen_corrections: BTreeSet<(u16, u16)>,
    /// Per-next-hop packet counts this unit (load balancing, §IV-E.3).
    lb_incoming: Vec<u64>,
    lb_outgoing: Vec<u64>,
    overloaded: Vec<bool>,
    unit_seq: u64,
    /// §IV-D.3 next-hop decisions memoized per destination
    /// (DESIGN.md §14): forwarding between table changes is one flat
    /// lookup instead of a fresh divert/fallback evaluation.
    route_cache: Vec<RouteCacheCell>,
    /// Cumulative route-cache hit/miss counts, exported through the
    /// obs stream at each observation point and serialized verbatim so
    /// a restored lineage reports the same totals as an uninterrupted
    /// run.
    cache_hits: u64,
    cache_misses: u64,
}

impl LandmarkState {
    /// A throwaway placeholder for `mem::replace` while a landmark's real
    /// state is away on a shard worker (DESIGN.md §13). Never observed:
    /// the commit phase puts the real state back before any other code
    /// touches the slot.
    fn vacant() -> LandmarkState {
        LandmarkState {
            rt: RoutingTable::new(LandmarkId(0), 1),
            by_next_hop: DenseMap::new(),
            by_dst: DenseMap::new(),
            by_dst_node: DenseMap::new(),
            pending_corrections: Vec::new(),
            seen_corrections: BTreeSet::new(),
            lb_incoming: Vec::new(),
            lb_outgoing: Vec::new(),
            overloaded: Vec::new(),
            unit_seq: 0,
            route_cache: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Empty every station bucket, keeping the allocated sets for reuse.
    fn clear_buckets(&mut self) {
        for s in self.by_next_hop.values_mut() {
            s.clear();
        }
        for s in self.by_dst.values_mut() {
            s.clear();
        }
        for s in self.by_dst_node.values_mut() {
            s.clear();
        }
    }
}

/// Routing metadata DTN-FLOW stamps on a packet when forwarding it
/// (§IV-D.3 step 3: next-hop landmark id + expected overall delay).
#[derive(Debug, Clone, Copy)]
struct PktMeta {
    next_hop: Option<LandmarkId>,
    expected: f64,
    /// How many station outages have stranded this packet (degradation:
    /// re-queued on recovery until `DegradationConfig::max_retries`).
    retries: u32,
}

impl Default for PktMeta {
    fn default() -> Self {
        PktMeta {
            next_hop: None,
            expected: f64::INFINITY,
            retries: 0,
        }
    }
}

/// The §IV-D.3 next-hop choice for a `dst`-bound packet sitting at `lm`:
/// the routing-table entry, diverted to the backup next hop when the
/// primary is overloaded (§IV-E.3) or a known-down landmark
/// (degradation). Returns `(next, expected delay, lb-diverted,
/// down-fallback)`.
///
/// A free function over explicit borrows (rather than a `&self` method)
/// so shard workers can call it on a taken-out [`LandmarkState`] while
/// the router itself stays on the engine thread.
fn choose_next_in(
    st: &LandmarkState,
    cfg: &FlowConfig,
    known_down: &[bool],
    lm: LandmarkId,
    dst: LandmarkId,
) -> (Option<LandmarkId>, f64, bool, bool) {
    let entry = st.rt.entry(dst);
    let mut next = entry.next;
    let mut expected = entry.delay;
    let mut lb_diverted = false;
    let mut fellback = false;
    if let Some(lb) = &cfg.load_balance {
        if let (Some(nh), Some(bk)) = (next, entry.backup) {
            if st.overloaded[nh.index()]
                && !st.overloaded[bk.index()]
                && entry.backup_delay <= lb.max_detour * entry.delay
            {
                next = Some(bk);
                expected = entry.backup_delay;
                lb_diverted = true;
            }
        }
    }
    if cfg.degradation.is_some() {
        if let Some(nh) = next {
            if known_down[nh.index()] {
                if let Some(bk) = entry.backup {
                    if bk != nh && !known_down[bk.index()] && entry.backup_delay.is_finite() {
                        next = Some(bk);
                        expected = entry.backup_delay;
                        fellback = true;
                    }
                }
            }
        }
    }
    if dst == lm {
        // A node-addressed packet already at its via landmark: it just
        // waits for the destination node.
        next = None;
        expected = 0.0;
    }
    (next, expected, lb_diverted, fellback)
}

/// [`choose_next_in`] behind the per-destination route cache
/// (DESIGN.md §14). Sound because every input that can change the
/// choice is covered by the two stamps: the table entries only move on
/// `recompute` (the `computed` stamp), `overloaded` only moves at unit
/// boundaries *before* that unit's recompute (so the same stamp covers
/// it), and `known_down` only moves with the router-wide `route_epoch`.
/// Like [`choose_next_in`], a free function so shard workers can run it
/// against a taken-out [`LandmarkState`].
fn choose_next_cached(
    st: &mut LandmarkState,
    cfg: &FlowConfig,
    known_down: &[bool],
    route_epoch: u64,
    lm: LandmarkId,
    dst: LandmarkId,
) -> (Option<LandmarkId>, f64, bool, bool) {
    let computed = st.rt.computed();
    let cell = st.route_cache[dst.index()];
    if cell.computed == computed && cell.epoch == route_epoch {
        st.cache_hits += 1;
        return (cell.next, cell.expected, cell.lb_diverted, cell.fellback);
    }
    st.cache_misses += 1;
    let (next, expected, lb_diverted, fellback) = choose_next_in(st, cfg, known_down, lm, dst);
    st.route_cache[dst.index()] = RouteCacheCell {
        computed,
        epoch: route_epoch,
        next,
        expected,
        lb_diverted,
        fellback,
    };
    (next, expected, lb_diverted, fellback)
}

/// What one shard worker computed for one landmark at a unit boundary
/// (DESIGN.md §13): the updated state to put back, buffered trace events,
/// the packet-metadata stamps, and the fallback-reroute count — all
/// committed serially in ascending landmark order.
struct LandmarkUnitResult {
    l: usize,
    st: LandmarkState,
    events: EventBuffer,
    metas: Vec<(PacketId, PktMeta)>,
    fallbacks: u64,
}

/// The per-landmark §IV-C.1 unit-boundary work, as run by a shard worker
/// on a taken-out [`LandmarkState`]: trace snapshot of the freshly-folded
/// Eq. 4 estimates, staleness decay, correction/load-balance bookkeeping,
/// routing-table recompute, and the station re-bucketing — byte-for-byte
/// the same computation as the sequential loop body in `on_time_unit`,
/// against the same pre-unit inputs:
///
/// * `bw` is read-only after the serial `end_of_unit_all` fold;
/// * `meta` is the pre-unit stamp table — safe, because a packet sits at
///   exactly one station, so no other landmark's rebucket touches its
///   stamp this unit and the pre-unit `retries` is what the sequential
///   interleaving reads too;
/// * trace events go into the returned buffer, flushed in ascending
///   landmark order by the commit phase — the sequential emission order.
#[allow(clippy::too_many_arguments)] // a worker gets exactly the shared read-only slices
fn landmark_unit_work(
    l: usize,
    mut st: LandmarkState,
    unit: u64,
    trace_on: bool,
    view: &WorldView<'_>,
    bw: &BandwidthMatrix,
    cfg: &FlowConfig,
    known_down: &[bool],
    route_epoch: u64,
    meta: &[PktMeta],
) -> LandmarkUnitResult {
    let lm = LandmarkId::from(l);
    let mut events = EventBuffer::new();
    if trace_on {
        for j in (0..st.overloaded.len()).map(LandmarkId::from) {
            let value = bw.incoming(lm, j);
            if value > 0.0 {
                let at = view.now();
                events.record(SimEvent::BandwidthUpdated {
                    at,
                    from: j,
                    to: lm,
                    value,
                });
            }
        }
    }
    if let Some(deg) = &cfg.degradation {
        st.rt
            .decay_stale(unit, deg.staleness_max_age, deg.staleness_factor);
    }
    st.unit_seq = unit;
    st.seen_corrections.clear();
    st.pending_corrections
        .retain(|(born, _)| unit.saturating_sub(*born) <= 1);
    if let Some(lb) = &cfg.load_balance {
        for h in 0..st.overloaded.len() {
            st.overloaded[h] = st.lb_incoming[h] >= lb.min_incoming
                && st.lb_incoming[h] as f64 > lb.theta * st.lb_outgoing[h] as f64;
        }
    }
    st.lb_incoming.iter_mut().for_each(|c| *c = 0);
    st.lb_outgoing.iter_mut().for_each(|c| *c = 0);
    st.rt
        .recompute(&|to| bw.link_delay(lm, to, cfg, view.config()));
    // Rebucket against the (frozen) station contents: same packets, same
    // ascending-id order as `FlowRouter::rebucket`.
    st.clear_buckets();
    let mut metas = Vec::new();
    let mut fallbacks = 0u64;
    let mut packets = Vec::new();
    view.station_packets(lm, &mut packets);
    for &pkt in &packets {
        let p = view.packet(pkt);
        let (next, expected, _, fellback) =
            choose_next_cached(&mut st, cfg, known_down, route_epoch, lm, p.dst);
        if fellback {
            fallbacks += 1;
        }
        let retries = meta.get(pkt.index()).map_or(0, |m| m.retries);
        metas.push((
            pkt,
            PktMeta {
                next_hop: next,
                expected,
                retries,
            },
        ));
        st.by_dst.get_or_default(p.dst).insert(pkt);
        if let Some(nh) = next {
            st.by_next_hop.get_or_default(nh).insert(pkt);
        }
        if let Some(n) = p.dst_node {
            st.by_dst_node.get_or_default(n).insert(pkt);
        }
    }
    LandmarkUnitResult {
        l,
        st,
        events,
        metas,
        fallbacks,
    }
}

/// Extension-event counters, for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    pub dead_ends_detected: u64,
    pub loops_detected: u64,
    pub lb_reroutes: u64,
    pub tables_received: u64,
    pub reports_applied: u64,
    /// Packets re-aimed at their backup next hop because the primary was
    /// a known-down landmark (degradation).
    pub fallback_reroutes: u64,
    /// Stranded packets re-queued after their station recovered.
    pub stranded_requeues: u64,
    /// Stranded packets dropped after exhausting their retry budget.
    pub stranded_drops: u64,
}

/// Timer-token namespace tag for station-recovery retries (see
/// [`FlowRouter::retry_token`]): retries ride the engine timing wheel as
/// ordinary shard-local timer events, distinguished from dead-end timers
/// by this bit.
const RETRY_TOKEN_TAG: u64 = 1 << 63;

/// The DTN-FLOW router.
pub struct FlowRouter {
    // detlint: allow(S1, reason = "run input, not state: restore_state receives the same FlowConfig the run started with")
    cfg: FlowConfig,
    nodes: Vec<NodeState>,
    landmarks: Vec<LandmarkState>,
    /// All landmarks' Eq. 4 bandwidth measurements, one flat matrix.
    bw: BandwidthMatrix,
    meta: Vec<PktMeta>,
    observer: TableObserver,
    current_unit: u64,
    // detlint: allow(S1, reason = "derived from cfg.inject_loops on restore, same as in new()")
    injections: Vec<LoopInjection>,
    /// Frequently-visited landmarks registered per node (§IV-E.4).
    registrations: Vec<Vec<LandmarkId>>,
    /// Landmarks currently known to be down (fault hooks); routing falls
    /// back to backup next hops around them.
    known_down: Vec<bool>,
    /// Bumped whenever `known_down` changes; the second validity stamp
    /// of every landmark's route cache (DESIGN.md §14).
    route_epoch: u64,
    /// Per-(landmark, target-landmark) connected carriers ranked by
    /// `accuracy × transit-probability` (DESIGN.md §14), maintained on
    /// arrive/depart/fail so `try_assign_packet` walks a pre-ranked
    /// list instead of rescanning every connected node per packet.
    rank: RankIndex,
    stats: FlowStats,
    /// Reusable packet-id buffer for the per-contact and per-tick loops
    /// (rebucket, uplink, §IV-E.4 delivery), taken and restored around
    /// each use so the hot paths never allocate once warm.
    // detlint: allow(S1, reason = "scratch buffer, empty between events by construction")
    scratch_pkts: Vec<PacketId>,
    /// Reusable per-bucket candidate buffer for `assign_to_node`.
    // detlint: allow(S1, reason = "scratch buffer, empty between events by construction")
    scratch_bucket: Vec<PacketId>,
    /// Reusable successor-distribution buffer for `assign_to_node`.
    // detlint: allow(S1, reason = "scratch buffer, empty between events by construction")
    scratch_dist: Vec<(LandmarkId, f64)>,
}

impl FlowRouter {
    /// Create a DTN-FLOW router for a network of the given size.
    pub fn new(cfg: FlowConfig, num_nodes: usize, num_landmarks: usize) -> Self {
        cfg.validate();
        let nodes = (0..num_nodes)
            .map(|_| NodeState {
                predictor: MarkovPredictor::with_landmarks(cfg.order_k, num_landmarks),
                accuracy: AccuracyTracker::with_factors(
                    num_landmarks,
                    cfg.accuracy.init,
                    cfg.accuracy.up,
                    cfg.accuracy.down,
                    cfg.accuracy.floor,
                ),
                history: VisitHistory::new(num_landmarks),
                predicted: None,
                arrival: None,
                last_landmark: None,
                carried: None,
                episode: 0,
            })
            .collect();
        let landmarks = (0..num_landmarks)
            .map(|l| LandmarkState {
                rt: RoutingTable::new(LandmarkId::from(l), num_landmarks),
                by_next_hop: DenseMap::with_index_capacity(num_landmarks),
                by_dst: DenseMap::with_index_capacity(num_landmarks),
                by_dst_node: DenseMap::new(),
                pending_corrections: Vec::new(),
                seen_corrections: BTreeSet::new(),
                lb_incoming: vec![0; num_landmarks],
                lb_outgoing: vec![0; num_landmarks],
                overloaded: vec![false; num_landmarks],
                unit_seq: 0,
                route_cache: vec![RouteCacheCell::EMPTY; num_landmarks],
                cache_hits: 0,
                cache_misses: 0,
            })
            .collect();
        let injections = cfg.inject_loops.clone();
        let bandwidth_alpha = cfg.bandwidth_alpha;
        FlowRouter {
            cfg,
            nodes,
            landmarks,
            bw: BandwidthMatrix::new(num_landmarks, bandwidth_alpha),
            meta: Vec::new(),
            observer: TableObserver::new(),
            current_unit: 0,
            injections,
            registrations: vec![Vec::new(); num_nodes],
            known_down: vec![false; num_landmarks],
            route_epoch: 0,
            rank: RankIndex::new(num_landmarks),
            stats: FlowStats::default(),
            scratch_pkts: Vec::new(),
            scratch_bucket: Vec::new(),
            scratch_dist: Vec::new(),
        }
    }

    /// Extension-event counters.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Fig. 8 observation rows collected so far.
    pub fn observations(&self) -> &[ObservationRow] {
        self.observer.rows()
    }

    /// The current routing-table rows of a landmark (Table X).
    pub fn routing_rows(&self, lm: LandmarkId) -> Vec<(LandmarkId, LandmarkId, f64)> {
        self.landmarks[lm.index()].rt.rows()
    }

    /// The effective outgoing bandwidth estimate `B(from→to)` (Fig. 16b).
    pub fn bandwidth(&self, from: LandmarkId, to: LandmarkId) -> f64 {
        self.bw.outgoing(from, to)
    }

    /// A node's current prediction, if any: (predicted landmark, prob).
    pub fn prediction(&self, node: NodeId) -> Option<(LandmarkId, f64)> {
        self.nodes[node.index()].predicted.map(|(_, to, p)| (to, p))
    }

    /// The frequently-visited landmarks currently registered for a node.
    pub fn registered_landmarks(&self, node: NodeId) -> &[LandmarkId] {
        &self.registrations[node.index()]
    }

    /// §IV-E.4: send a packet from `src`'s subarea to a mobile node, by
    /// copying it to each of the destination node's registered frequent
    /// landmarks. Returns the created packet copies (empty if the node has
    /// no registration yet).
    pub fn send_to_node(
        &mut self,
        world: &mut World,
        src: LandmarkId,
        dst_node: NodeId,
    ) -> Vec<PacketId> {
        let vias = self.registrations[dst_node.index()].clone();
        let mut out = Vec::with_capacity(vias.len());
        for via in vias {
            let pkt = world.create_node_packet(src, via, dst_node, true);
            self.station_accept(world, src, pkt, None);
            out.push(pkt);
        }
        out
    }

    // ---- crate-internal services (used by the hybrid extension) ----------

    /// The overall transit score `p_a(lm) · p_pred(lm → toward)` of a node
    /// currently at `lm`; zero when the node is elsewhere or has never
    /// made that transit.
    pub(crate) fn transit_score(&self, node: NodeId, lm: LandmarkId, toward: LandmarkId) -> f64 {
        let ns = &self.nodes[node.index()];
        if ns.predictor.current() != Some(lm) {
            return 0.0;
        }
        ns.accuracy.overall(lm, ns.predictor.probability(toward))
    }

    /// The next-hop landmark stamped on a packet, if any.
    pub(crate) fn stamped_next_hop(&self, pkt: PacketId) -> Option<LandmarkId> {
        self.meta_of(pkt).next_hop
    }

    // ---- bench hooks ------------------------------------------------------
    //
    // The `hotpath` microbenches (crates/bench) drive the real cached
    // next-hop chooser without standing up a `World`. Hidden from docs;
    // not a stable API.

    /// Install a pre-built routing table at `lm` (bench support).
    #[doc(hidden)]
    pub fn bench_install_table(&mut self, lm: LandmarkId, rt: RoutingTable) {
        self.landmarks[lm.index()].rt = rt;
    }

    /// One next-hop decision through the route cache (bench support).
    #[doc(hidden)]
    pub fn bench_route_lookup(&mut self, lm: LandmarkId, dst: LandmarkId) -> Option<LandmarkId> {
        self.choose_next(lm, dst).0
    }

    /// Invalidate every landmark's route cache, as a station up/down
    /// transition would (bench support).
    #[doc(hidden)]
    pub fn bench_flush_route_cache(&mut self) {
        self.route_epoch += 1;
    }

    // ---- internals --------------------------------------------------------

    fn meta_of(&self, pkt: PacketId) -> PktMeta {
        self.meta.get(pkt.index()).copied().unwrap_or_default()
    }

    fn set_meta(&mut self, pkt: PacketId, m: PktMeta) {
        if self.meta.len() <= pkt.index() {
            self.meta.resize(pkt.index() + 1, PktMeta::default());
        }
        self.meta[pkt.index()] = m;
    }

    /// File (`insert == true`) or delete (`insert == false`) `node`'s
    /// carrier-rank entries at `lm`: one `(accuracy × transit-prob,
    /// node)` key per positive-probability successor of its current
    /// context (DESIGN.md §14). Insert and remove recompute identical
    /// keys because a node's predictor distribution and accuracy are
    /// frozen during its stay — both only move inside `on_arrive`,
    /// before the arrival insert. A node whose predictor does not place
    /// it at `lm` (e.g. its visit record was dropped by the fault plan
    /// and it was last observed elsewhere) files nothing, exactly as
    /// the scan this index replaces skipped it.
    fn rank_update(&mut self, node: NodeId, lm: LandmarkId, insert: bool) {
        let mut dist = std::mem::take(&mut self.scratch_dist);
        let ns = &self.nodes[node.index()];
        if ns.predictor.current() != Some(lm) {
            self.scratch_dist = dist;
            return;
        }
        ns.predictor.distribution_into(&mut dist);
        let acc = ns.accuracy.get(lm);
        for &(target, p) in dist.iter() {
            if target == lm || p <= 0.0 {
                continue;
            }
            let score = acc * p;
            if insert {
                self.rank.insert(lm.index(), target.0, score, node.0);
            } else {
                self.rank.remove(lm.index(), target.0, score, node.0);
            }
        }
        self.scratch_dist = dist;
    }

    fn recompute_tables(&mut self, lm: LandmarkId, world: &World) {
        let flow = &self.cfg;
        let sim = world.config();
        let bw = &self.bw;
        let st = &mut self.landmarks[lm.index()];
        st.rt.recompute(&|to| bw.link_delay(lm, to, flow, sim));
    }

    /// Choose the next hop for a `dst`-bound packet sitting at `lm`:
    /// the routing-table entry, diverted to the backup next hop when the
    /// primary is overloaded (§IV-E.3) or a known-down landmark
    /// (degradation). Returns `(next, expected delay, lb-diverted,
    /// down-fallback)`. Served from the per-destination route cache
    /// between table changes (DESIGN.md §14).
    fn choose_next(
        &mut self,
        lm: LandmarkId,
        dst: LandmarkId,
    ) -> (Option<LandmarkId>, f64, bool, bool) {
        choose_next_cached(
            &mut self.landmarks[lm.index()],
            &self.cfg,
            &self.known_down,
            self.route_epoch,
            lm,
            dst,
        )
    }

    /// A packet landed at (or was generated at) station `lm`: choose its
    /// next hop (load-balance aware), stamp it, index it, and try to hand
    /// it to a suitable connected node right away (§IV-D.2/3).
    fn station_accept(
        &mut self,
        world: &mut World,
        lm: LandmarkId,
        pkt: PacketId,
        exclude: Option<NodeId>,
    ) {
        let p = world.packet(pkt);
        let dst = p.dst;
        let dst_node = p.dst_node;
        debug_assert_eq!(p.loc, PacketLoc::AtStation(lm));

        let (next, expected, lb_diverted, fellback) = self.choose_next(lm, dst);
        if lb_diverted {
            self.stats.lb_reroutes += 1;
        }
        if fellback {
            self.stats.fallback_reroutes += 1;
        }
        let retries = self.meta_of(pkt).retries;
        self.set_meta(
            pkt,
            PktMeta {
                next_hop: next,
                expected,
                retries,
            },
        );

        let st = &mut self.landmarks[lm.index()];
        st.by_dst.get_or_default(dst).insert(pkt);
        if let Some(nh) = next {
            st.by_next_hop.get_or_default(nh).insert(pkt);
            st.lb_incoming[nh.index()] += 1;
        }
        if let Some(n) = dst_node {
            st.by_dst_node.get_or_default(n).insert(pkt);
        }

        self.try_assign_packet(world, lm, pkt, exclude);
    }

    /// Find the best connected carrier for one station packet: a node
    /// predicted to transit to the packet's destination (direct delivery)
    /// or, failing that, to its next-hop landmark — ranked by the overall
    /// transit probability `p_a · p_pred` (§IV-D.4).
    ///
    /// Served by the incrementally maintained carrier rank index
    /// (DESIGN.md §14): the pre-ranked `(lm, dst)` list is walked first
    /// — any direct-delivery candidate beats every routed one, whatever
    /// the scores — then the `(lm, next-hop)` list. Each walk stops at
    /// the first eligible member; the lists' `(score desc, id asc)`
    /// order makes that exactly the scan's best-score/lowest-id winner.
    fn try_assign_packet(
        &mut self,
        world: &mut World,
        lm: LandmarkId,
        pkt: PacketId,
        exclude: Option<NodeId>,
    ) {
        let meta = self.meta_of(pkt);
        let p = world.packet(pkt);
        if p.loc != PacketLoc::AtStation(lm) {
            return;
        }
        let dst = p.dst;
        let remaining = p.remaining_ttl(world.now()).secs() as f64;

        let pick = |world: &World, list: &[RankEntry]| -> Option<NodeId> {
            list.iter()
                .map(|e| NodeId(e.member))
                .find(|&n| Some(n) != exclude && world.node_has_space(n))
        };
        // Direct delivery (§IV-D.2): any candidate here wins outright.
        if dst != lm {
            if let Some(n) = pick(world, self.rank.ranked(lm.index(), dst.0)) {
                self.hand_to_carrier(world, lm, pkt, n, dst);
                return;
            }
        }
        // Next-hop relay (§IV-D.3 step 4), only when the stamped route
        // still fits the remaining TTL (§IV-D.5 step 4).
        if let Some(nh) = meta.next_hop {
            if nh != lm && meta.expected < remaining {
                if let Some(n) = pick(world, self.rank.ranked(lm.index(), nh.0)) {
                    self.hand_to_carrier(world, lm, pkt, n, nh);
                }
            }
        }
    }

    /// Transfer a station packet to a chosen carrier and stamp it.
    fn hand_to_carrier(
        &mut self,
        world: &mut World,
        lm: LandmarkId,
        pkt: PacketId,
        carrier: NodeId,
        toward: LandmarkId,
    ) -> bool {
        let dst = world.packet(pkt).dst;
        let expected = self.landmarks[lm.index()].rt.delay_to(dst);
        match world.transfer_to_node(pkt, carrier) {
            Ok(()) => {
                self.unindex(lm, pkt, dst, world.packet(pkt).dst_node);
                let st = &mut self.landmarks[lm.index()];
                st.lb_outgoing[toward.index()] += 1;
                let retries = self.meta_of(pkt).retries;
                self.set_meta(
                    pkt,
                    PktMeta {
                        next_hop: Some(toward),
                        expected,
                        retries,
                    },
                );
                true
            }
            Err(TransferError::Expired) => {
                self.unindex(lm, pkt, dst, None);
                false
            }
            Err(_) => false,
        }
    }

    fn unindex(
        &mut self,
        lm: LandmarkId,
        pkt: PacketId,
        dst: LandmarkId,
        dst_node: Option<NodeId>,
    ) {
        let meta = self.meta_of(pkt);
        let st = &mut self.landmarks[lm.index()];
        if let Some(set) = st.by_dst.get_mut(dst) {
            set.remove(pkt);
        }
        if let Some(nh) = meta.next_hop {
            if let Some(set) = st.by_next_hop.get_mut(nh) {
                set.remove(pkt);
            }
        }
        if let Some(n) = dst_node {
            if let Some(set) = st.by_dst_node.get_mut(n) {
                set.remove(pkt);
            }
        }
    }

    /// Downlink at node arrival: give the node up to `upload_cap` station
    /// packets it can usefully carry — direct-delivery packets first, then
    /// packets routed toward its predicted landmark, in minimum-remaining-
    /// TTL order (§IV-D.5 step 4; TTL order equals id order because every
    /// packet shares one TTL).
    fn assign_to_node(&mut self, world: &mut World, lm: LandmarkId, node: NodeId) {
        // The node can carry packets toward *any* landmark it has a
        // positive predicted probability of transiting to — its whole
        // successor distribution, best first. Within each target, direct-
        // delivery packets (dst == target) precede routed packets
        // (next hop == target), in minimum-remaining-TTL order (equal to
        // id order, since every packet shares one TTL).
        // The distribution and per-bucket candidate lists land in scratch
        // buffers owned by the router (taken here, restored at the single
        // exit below), so this per-contact path stops allocating once the
        // buffers are warm.
        let mut dist = std::mem::take(&mut self.scratch_dist);
        let at_lm = {
            let ns = &self.nodes[node.index()];
            ns.predictor.distribution_into(&mut dist);
            ns.predictor.current()
        };
        if at_lm != Some(lm) || dist.is_empty() {
            self.scratch_dist = dist;
            return;
        }
        // `upload_cap` (K = 50) is the §IV-D.5 *per-round* granularity and
        // only applies when the radio is actually contended; with an
        // unconstrained radio the transfer is bounded by node memory, as
        // in the paper's trace experiments.
        let cap = if world.config().radio_budget_per_unit.is_some() {
            world.config().upload_cap
        } else {
            usize::MAX
        };
        let mut assigned = 0usize;
        let now = world.now();

        // Phase 0 honours the §IV-D.5 priority: packets whose expected
        // delay fits their remaining TTL go first. Phase 1 is best-effort
        // mop-up — a packet past its feasible window still rides along if
        // capacity remains, rather than freezing at the station.
        let mut bucket = std::mem::take(&mut self.scratch_bucket);
        'phases: for phase in 0..2 {
            for &(h, p) in &dist {
                if h == lm {
                    continue;
                }
                if assigned >= cap || !world.node_has_space(node) {
                    break 'phases;
                }
                // Bulk-load proportionally to the transit confidence: a
                // carrier that only sometimes heads to `h` takes only a
                // slice of the queue, leaving the rest for better-matched
                // carriers instead of stranding mis-transited packets.
                let free_slots =
                    (world.node_free_bytes(node) / world.config().packet_size) as usize;
                let mut bucket_quota = ((free_slots as f64) * p).ceil() as usize;
                for direct in [true, false] {
                    if phase == 1 && direct {
                        continue; // direct packets were never deferred
                    }
                    let st = &self.landmarks[lm.index()];
                    let index = if direct { &st.by_dst } else { &st.by_next_hop };
                    let Some(set) = index.get(h) else { continue };
                    bucket.clear();
                    bucket.extend(set.iter());
                    for &pkt in bucket.iter() {
                        if assigned >= cap || bucket_quota == 0 || !world.node_has_space(node) {
                            break;
                        }
                        let p = world.packet(pkt);
                        // Lazily drop stale index entries.
                        if p.loc != PacketLoc::AtStation(lm) {
                            let dst = p.dst;
                            let dn = p.dst_node;
                            self.unindex(lm, pkt, dst, dn);
                            continue;
                        }
                        if !direct {
                            if p.dst == h {
                                continue; // handled by the direct pass
                            }
                            let meta = self.meta_of(pkt);
                            let remaining = p.remaining_ttl(now).secs() as f64;
                            let feasible = meta.expected < remaining;
                            if feasible != (phase == 0) {
                                continue;
                            }
                        }
                        if self.hand_to_carrier(world, lm, pkt, node, h) {
                            assigned += 1;
                            bucket_quota -= 1;
                        }
                    }
                }
            }
        }
        self.scratch_bucket = bucket;
        self.scratch_dist = dist;
    }

    /// A packet closed a loop at `lm`: raise and apply a correction
    /// (§IV-E.2).
    fn handle_loop(&mut self, world: &mut World, lm: LandmarkId, pkt: PacketId) {
        self.stats.loops_detected += 1;
        if !self.cfg.loop_correction {
            return;
        }
        let p = world.packet(pkt);
        let dest = p.dst;
        let mut members: Vec<LandmarkId> = p.loop_members(lm).to_vec();
        members.sort();
        members.dedup();
        if members.len() < 2 {
            return;
        }
        let correction = Correction {
            dest,
            members,
            hops_left: 8,
            claims: Vec::new(),
        };
        self.apply_correction(world, lm, correction);
    }

    /// Apply a correction at `lm`.
    ///
    /// 1. Any claims already in the notice are installed as fresh
    ///    distance-vector entries for the destination (this is the
    ///    "updated distance vector" exchange of §IV-E.2).
    /// 2. The *first* time a member landmark sees this loop in a unit, it
    ///    distrusts the other members' stored claims for the destination —
    ///    this is what actually removes the stale entry sustaining the
    ///    loop.
    /// 3. The member appends its own (now recomputed) delay claim and the
    ///    notice is queued for further relaying with a hop budget.
    fn apply_correction(&mut self, world: &World, lm: LandmarkId, mut c: Correction) {
        let dest = c.dest;
        let mut changed = false;
        for &(j, v) in &c.claims {
            if j != lm.0 {
                let seq = self.landmarks[lm.index()].unit_seq;
                self.landmarks[lm.index()]
                    .rt
                    .set_claim(LandmarkId(j), dest, v, seq);
                changed = true;
            }
        }
        let key = (dest.0, c.members.first().map(|m| m.0).unwrap_or(0));
        let first_time = self.landmarks[lm.index()].seen_corrections.insert(key);
        if first_time && c.members.contains(&lm) {
            let others: Vec<LandmarkId> = c.members.iter().copied().filter(|&m| m != lm).collect();
            self.landmarks[lm.index()].rt.distrust(dest, &others);
            changed = true;
        }
        if changed {
            self.recompute_tables(lm, world);
        }
        if c.members.contains(&lm) {
            let my_delay = self.landmarks[lm.index()].rt.delay_to(dest);
            c.claims.retain(|&(j, _)| j != lm.0);
            c.claims.push((lm.0, my_delay));
        }
        if first_time && c.hops_left > 0 {
            let unit = self.current_unit;
            self.landmarks[lm.index()].pending_corrections.push((
                unit,
                Correction {
                    hops_left: c.hops_left - 1,
                    ..c
                },
            ));
        }
    }

    /// Rebuild a landmark's station indices after a routing-table refresh.
    fn rebucket(&mut self, world: &World, lm: LandmarkId) {
        let mut packets = std::mem::take(&mut self.scratch_pkts);
        world.station_packets(lm, &mut packets);
        self.landmarks[lm.index()].clear_buckets();
        for &pkt in packets.iter() {
            let p = world.packet(pkt);
            let dst = p.dst;
            let dst_node = p.dst_node;
            let (next, expected, _, fellback) = self.choose_next(lm, dst);
            if fellback {
                self.stats.fallback_reroutes += 1;
            }
            let retries = self.meta_of(pkt).retries;
            self.set_meta(
                pkt,
                PktMeta {
                    next_hop: next,
                    expected,
                    retries,
                },
            );
            let st = &mut self.landmarks[lm.index()];
            st.by_dst.get_or_default(dst).insert(pkt);
            if let Some(nh) = next {
                st.by_next_hop.get_or_default(nh).insert(pkt);
            }
            if let Some(n) = dst_node {
                st.by_dst_node.get_or_default(n).insert(pkt);
            }
        }
        self.scratch_pkts = packets;
    }

    /// The serial start of every unit boundary: scheduled loop injections
    /// and the flat Eq. 4 bandwidth fold. Shared verbatim by the
    /// sequential and sharded `on_time_unit` paths.
    fn unit_prelude(&mut self, unit: u64) {
        self.current_unit = unit;

        // Scheduled loop injections (Table VII experiment). An index walk
        // instead of a filter/collect: only the (rare) due injections are
        // cloned, and the common tick clones nothing.
        for i in 0..self.injections.len() {
            if self.injections[i].at_unit != unit {
                continue;
            }
            let inj = self.injections[i].clone();
            let k = inj.members.len();
            for (idx, &m) in inj.members.iter().enumerate() {
                let next = inj.members[(idx + 1) % k];
                self.landmarks[m.index()]
                    .rt
                    .set_claim(next, inj.dest, 1.0, unit);
            }
        }

        // One flat Eq. 4 fold over every landmark's incoming links (the
        // per-landmark folds are independent, so folding them all before
        // the per-landmark bookkeeping computes identical values).
        self.bw.end_of_unit_all();
    }

    /// Refresh §IV-E.4 registrations, reusing each node's buffer.
    fn refresh_registrations(&mut self) {
        let top = self.cfg.frequent_landmarks;
        for n in 0..self.nodes.len() {
            self.nodes[n]
                .history
                .frequent_landmarks_into(top, &mut self.registrations[n]);
        }
    }

    /// [`FlowRouter::refresh_registrations`] fanned out over contiguous
    /// node chunks. Each chunk pairs a read-only slice of node state with
    /// the matching mutable slice of registration buffers — per-node
    /// outputs are independent, so chunk order is immaterial and the
    /// result is identical to the sequential walk.
    fn refresh_registrations_sharded(&mut self, exec: &dtnflow_sim::ShardExec) {
        /// Below this node count the spawn overhead dwarfs the refresh.
        const PAR_MIN: usize = 256;
        if !exec.parallel() || self.nodes.len() < PAR_MIN {
            self.refresh_registrations();
            return;
        }
        let top = self.cfg.frequent_landmarks;
        let chunk = self.nodes.len().div_ceil(exec.threads()).max(1);
        let parts: Vec<(&[NodeState], &mut [Vec<LandmarkId>])> = self
            .nodes
            .chunks(chunk)
            .zip(self.registrations.chunks_mut(chunk))
            .collect();
        exec.map_parts(parts, |_, (nodes, regs)| {
            for (ns, reg) in nodes.iter().zip(regs.iter_mut()) {
                ns.history.frequent_landmarks_into(top, reg);
            }
        });
    }

    fn timer_token(node: NodeId, episode: u64) -> u64 {
        (episode << 24) | node.0 as u64
    }

    fn decode_token(token: u64) -> (NodeId, u64) {
        (NodeId((token & 0xFF_FFFF) as u32), token >> 24)
    }

    /// Token for a station-recovery retry timer: bit 63 tags the retry
    /// namespace, the low bits carry the landmark. Dead-end tokens
    /// (`(episode << 24) | node`) never reach bit 63 — episodes count a
    /// node's visits, bounded far below `2^39`.
    fn retry_token(lm: LandmarkId) -> u64 {
        RETRY_TOKEN_TAG | lm.0 as u64
    }

    /// The landmark of a retry token, or `None` for dead-end tokens.
    fn decode_retry_token(token: u64) -> Option<LandmarkId> {
        (token & RETRY_TOKEN_TAG != 0).then_some(LandmarkId((token & 0xFFFF) as u16))
    }

    /// The stranded-packet scan a station-recovery retry timer triggers
    /// (scheduled by `on_station_up`). Packets stranded inside the failed
    /// station survived the outage: re-queue each one (retry budget
    /// permitting) and try to move the survivors out through any
    /// connected carriers right away.
    fn process_stranded_retries(&mut self, world: &mut World, lm: LandmarkId) {
        let Some(deg) = self.cfg.degradation else {
            return;
        };
        // A delayed retry may outlive its recovery window: if the station
        // went down again before the timer fired, the next recovery
        // schedules a fresh one.
        if !world.station_is_up(lm) || self.known_down[lm.index()] {
            return;
        }
        let mut stranded = Vec::new();
        world.station_packets(lm, &mut stranded);
        for &pkt in &stranded {
            let (dst, dst_node) = {
                let p = world.packet(pkt);
                (p.dst, p.dst_node)
            };
            let mut meta = self.meta_of(pkt);
            meta.retries += 1;
            if meta.retries > deg.max_retries {
                self.unindex(lm, pkt, dst, dst_node);
                if world.drop_lost(pkt, LossReason::Outage).is_ok() {
                    self.stats.stranded_drops += 1;
                }
                continue;
            }
            self.set_meta(pkt, meta);
            world.record_retry();
            world.emit(|at| SimEvent::RetryQueued { at, lm, pkt });
            self.stats.stranded_requeues += 1;
        }
        self.rebucket(world, lm);
        let mut survivors = stranded;
        world.station_packets(lm, &mut survivors);
        for &pkt in &survivors {
            self.try_assign_packet(world, lm, pkt, None);
        }
    }

    // ---- checkpoint codec (DESIGN.md §11) ---------------------------------

    /// Serialize the complete mutable router state: per-node learning
    /// state, per-landmark tables and station indices, the bandwidth
    /// matrix, packet metadata, the Fig. 8 observer, and the extension
    /// counters. The config and its derived loop-injection schedule are
    /// *not* written — the restoring run supplies the same `FlowConfig`
    /// it started with. Scratch buffers are excluded (empty between
    /// events by construction).
    ///
    /// The station indices (`by_next_hop`/`by_dst`/`by_dst_node`) are
    /// serialized verbatim rather than rebuilt via `rebucket` on restore:
    /// rebucketing re-runs `choose_next`, which mutates
    /// `stats.fallback_reroutes` and would diverge from the
    /// uninterrupted run.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.nodes.len());
        for ns in &self.nodes {
            encode_node_state(w, ns);
        }
        w.put_usize(self.landmarks.len());
        for st in &self.landmarks {
            encode_landmark_state(w, st);
        }
        self.bw.encode(w);
        w.put_usize(self.meta.len());
        for m in &self.meta {
            encode_opt_lm(w, m.next_hop);
            w.put_f64(m.expected);
            w.put_u32(m.retries);
        }
        self.observer.encode(w);
        w.put_u64(self.current_unit);
        w.put_usize(self.registrations.len());
        for reg in &self.registrations {
            w.put_usize(reg.len());
            for l in reg {
                w.put_u16(l.0);
            }
        }
        w.put_usize(self.known_down.len());
        for &d in &self.known_down {
            w.put_u8(d as u8);
        }
        w.put_u64(self.route_epoch);
        self.rank.encode(w);
        w.put_u64(self.stats.dead_ends_detected);
        w.put_u64(self.stats.loops_detected);
        w.put_u64(self.stats.lb_reroutes);
        w.put_u64(self.stats.tables_received);
        w.put_u64(self.stats.reports_applied);
        w.put_u64(self.stats.fallback_reroutes);
        w.put_u64(self.stats.stranded_requeues);
        w.put_u64(self.stats.stranded_drops);
    }

    /// Inverse of [`FlowRouter::save_state`]. The caller supplies the
    /// same `FlowConfig` and network dimensions the checkpointed run was
    /// started with; a snapshot whose dimensions disagree is rejected
    /// with [`SnapshotError::Mismatch`].
    pub fn restore_state(
        r: &mut Reader<'_>,
        cfg: FlowConfig,
        num_nodes: usize,
        num_landmarks: usize,
    ) -> Result<FlowRouter, SnapshotError> {
        const CTX: &str = "FlowRouter";
        cfg.validate();
        let n = r.seq_len("FlowRouter.nodes")?;
        if n != num_nodes {
            return Err(SnapshotError::Mismatch {
                context: format!("FlowRouter.nodes: snapshot has {n}, run has {num_nodes}"),
            });
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(decode_node_state(r, num_landmarks)?);
        }
        let nl = r.seq_len("FlowRouter.landmarks")?;
        if nl != num_landmarks {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "FlowRouter.landmarks: snapshot has {nl}, run has {num_landmarks}"
                ),
            });
        }
        let mut landmarks = Vec::with_capacity(nl);
        for l in 0..nl {
            landmarks.push(decode_landmark_state(
                r,
                LandmarkId::from(l),
                num_landmarks,
            )?);
        }
        let bw = BandwidthMatrix::decode(r)?;
        if bw.side() != num_landmarks {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "FlowRouter.bw: snapshot side {}, run has {num_landmarks}",
                    bw.side()
                ),
            });
        }
        let nm = r.seq_len("FlowRouter.meta")?;
        let mut meta = Vec::with_capacity(nm);
        for _ in 0..nm {
            meta.push(PktMeta {
                next_hop: decode_opt_lm(r, "PktMeta.next_hop")?,
                expected: r.f64(CTX)?,
                retries: r.u32(CTX)?,
            });
        }
        let observer = TableObserver::decode(r)?;
        let current_unit = r.u64(CTX)?;
        let nr = r.seq_len("FlowRouter.registrations")?;
        if nr != num_nodes {
            return Err(SnapshotError::Corrupt {
                context: "FlowRouter.registrations",
            });
        }
        let mut registrations = Vec::with_capacity(nr);
        for _ in 0..nr {
            let k = r.seq_len("FlowRouter.registration")?;
            let mut reg = Vec::with_capacity(k);
            for _ in 0..k {
                reg.push(LandmarkId(r.u16(CTX)?));
            }
            registrations.push(reg);
        }
        let nd = r.seq_len("FlowRouter.known_down")?;
        if nd != num_landmarks {
            return Err(SnapshotError::Corrupt {
                context: "FlowRouter.known_down",
            });
        }
        let mut known_down = Vec::with_capacity(nd);
        for _ in 0..nd {
            known_down.push(decode_bool(r, "FlowRouter.known_down")?);
        }
        let route_epoch = r.u64(CTX)?;
        let rank = RankIndex::decode(r)?;
        if rank.groups() != num_landmarks {
            return Err(SnapshotError::Corrupt {
                context: "FlowRouter.rank",
            });
        }
        let stats = FlowStats {
            dead_ends_detected: r.u64(CTX)?,
            loops_detected: r.u64(CTX)?,
            lb_reroutes: r.u64(CTX)?,
            tables_received: r.u64(CTX)?,
            reports_applied: r.u64(CTX)?,
            fallback_reroutes: r.u64(CTX)?,
            stranded_requeues: r.u64(CTX)?,
            stranded_drops: r.u64(CTX)?,
        };
        let injections = cfg.inject_loops.clone();
        Ok(FlowRouter {
            cfg,
            nodes,
            landmarks,
            bw,
            meta,
            observer,
            current_unit,
            injections,
            registrations,
            known_down,
            route_epoch,
            rank,
            stats,
            scratch_pkts: Vec::new(),
            scratch_bucket: Vec::new(),
            scratch_dist: Vec::new(),
        })
    }
}

// ---- checkpoint codec helpers (module-private state) ----------------------

fn encode_correction(w: &mut Writer, c: &Correction) {
    w.put_u16(c.dest.0);
    w.put_usize(c.members.len());
    for m in &c.members {
        w.put_u16(m.0);
    }
    w.put_u32(c.hops_left);
    w.put_usize(c.claims.len());
    for &(l, d) in &c.claims {
        w.put_u16(l);
        w.put_f64(d);
    }
}

fn decode_correction(r: &mut Reader<'_>) -> Result<Correction, SnapshotError> {
    const CTX: &str = "Correction";
    let dest = LandmarkId(r.u16(CTX)?);
    let nm = r.seq_len("Correction.members")?;
    let mut members = Vec::with_capacity(nm);
    for _ in 0..nm {
        members.push(LandmarkId(r.u16(CTX)?));
    }
    let hops_left = r.u32(CTX)?;
    let nc = r.seq_len("Correction.claims")?;
    let mut claims = Vec::with_capacity(nc);
    for _ in 0..nc {
        claims.push((r.u16(CTX)?, r.f64(CTX)?));
    }
    Ok(Correction {
        dest,
        members,
        hops_left,
        claims,
    })
}

fn encode_node_state(w: &mut Writer, ns: &NodeState) {
    ns.predictor.encode(w);
    ns.accuracy.encode(w);
    ns.history.encode(w);
    match ns.predicted {
        None => w.put_u8(0),
        Some((at, to, p)) => {
            w.put_u8(1);
            w.put_u16(at.0);
            w.put_u16(to.0);
            w.put_f64(p);
        }
    }
    match ns.arrival {
        None => w.put_u8(0),
        Some((lm, since)) => {
            w.put_u8(1);
            w.put_u16(lm.0);
            w.put_u64(since.secs());
        }
    }
    encode_opt_lm(w, ns.last_landmark);
    match &ns.carried {
        None => w.put_u8(0),
        Some(c) => {
            w.put_u8(1);
            w.put_u16(c.from.0);
            w.put_u64(c.seq);
            w.put_usize(c.vector.len());
            for &v in &c.vector {
                w.put_f64(v);
            }
            w.put_usize(c.entries);
            match c.report {
                None => w.put_u8(0),
                Some((to, value, seq)) => {
                    w.put_u8(1);
                    w.put_u16(to.0);
                    w.put_f64(value);
                    w.put_u64(seq);
                }
            }
            w.put_usize(c.corrections.len());
            for corr in &c.corrections {
                encode_correction(w, corr);
            }
        }
    }
    w.put_u64(ns.episode);
}

fn decode_node_state(r: &mut Reader<'_>, num_landmarks: usize) -> Result<NodeState, SnapshotError> {
    const CTX: &str = "NodeState";
    let predictor = MarkovPredictor::decode(r)?;
    let accuracy = AccuracyTracker::decode(r)?;
    let history = VisitHistory::decode(r)?;
    let predicted = match r.u8(CTX)? {
        0 => None,
        1 => Some((
            LandmarkId(r.u16(CTX)?),
            LandmarkId(r.u16(CTX)?),
            r.f64(CTX)?,
        )),
        t => {
            return Err(SnapshotError::InvalidTag {
                context: "NodeState.predicted",
                tag: t as u64,
            })
        }
    };
    let arrival = match r.u8(CTX)? {
        0 => None,
        1 => Some((LandmarkId(r.u16(CTX)?), SimTime(r.u64(CTX)?))),
        t => {
            return Err(SnapshotError::InvalidTag {
                context: "NodeState.arrival",
                tag: t as u64,
            })
        }
    };
    let last_landmark = decode_opt_lm(r, "NodeState.last_landmark")?;
    let carried = match r.u8(CTX)? {
        0 => None,
        1 => {
            let from = LandmarkId(r.u16(CTX)?);
            let seq = r.u64(CTX)?;
            let nv = r.seq_len("Carried.vector")?;
            if nv != num_landmarks {
                return Err(SnapshotError::Corrupt {
                    context: "Carried.vector",
                });
            }
            let mut vector = Vec::with_capacity(nv);
            for _ in 0..nv {
                vector.push(r.f64("Carried")?);
            }
            let entries = r.usize("Carried")?;
            let report = match r.u8("Carried")? {
                0 => None,
                1 => Some((
                    LandmarkId(r.u16("Carried")?),
                    r.f64("Carried")?,
                    r.u64("Carried")?,
                )),
                t => {
                    return Err(SnapshotError::InvalidTag {
                        context: "Carried.report",
                        tag: t as u64,
                    })
                }
            };
            let nc = r.seq_len("Carried.corrections")?;
            let mut corrections = Vec::with_capacity(nc);
            for _ in 0..nc {
                corrections.push(decode_correction(r)?);
            }
            Some(Carried {
                from,
                seq,
                vector,
                entries,
                report,
                corrections,
            })
        }
        t => {
            return Err(SnapshotError::InvalidTag {
                context: "NodeState.carried",
                tag: t as u64,
            })
        }
    };
    let episode = r.u64(CTX)?;
    Ok(NodeState {
        predictor,
        accuracy,
        history,
        predicted,
        arrival,
        last_landmark,
        carried,
        episode,
    })
}

fn encode_landmark_state(w: &mut Writer, st: &LandmarkState) {
    st.rt.encode(w);
    st.by_next_hop.encode_with(w, |w, s| s.encode(w));
    st.by_dst.encode_with(w, |w, s| s.encode(w));
    st.by_dst_node.encode_with(w, |w, s| s.encode(w));
    w.put_usize(st.pending_corrections.len());
    for (born, c) in &st.pending_corrections {
        w.put_u64(*born);
        encode_correction(w, c);
    }
    w.put_usize(st.seen_corrections.len());
    for &(a, b) in &st.seen_corrections {
        w.put_u16(a);
        w.put_u16(b);
    }
    w.put_usize(st.lb_incoming.len());
    for &v in &st.lb_incoming {
        w.put_u64(v);
    }
    w.put_usize(st.lb_outgoing.len());
    for &v in &st.lb_outgoing {
        w.put_u64(v);
    }
    w.put_usize(st.overloaded.len());
    for &b in &st.overloaded {
        w.put_u8(b as u8);
    }
    w.put_u64(st.unit_seq);
    // The route cache travels verbatim (cells, then the counters): a
    // restored lineage must serve the same hits and misses as the
    // uninterrupted run, and a cold cache would diverge the counters.
    w.put_usize(st.route_cache.len());
    for c in &st.route_cache {
        w.put_u64(c.computed);
        w.put_u64(c.epoch);
        encode_opt_lm(w, c.next);
        w.put_f64(c.expected);
        w.put_u8(c.lb_diverted as u8);
        w.put_u8(c.fellback as u8);
    }
    w.put_u64(st.cache_hits);
    w.put_u64(st.cache_misses);
}

fn decode_landmark_state(
    r: &mut Reader<'_>,
    me: LandmarkId,
    num_landmarks: usize,
) -> Result<LandmarkState, SnapshotError> {
    const CTX: &str = "LandmarkState";
    let rt = RoutingTable::decode(r)?;
    if rt.me() != me || rt.size() != num_landmarks {
        return Err(SnapshotError::Mismatch {
            context: format!(
                "LandmarkState.rt: snapshot is for landmark {} of {}, expected {} of {num_landmarks}",
                rt.me().0,
                rt.size(),
                me.0
            ),
        });
    }
    let by_next_hop = DenseMap::decode_with(r, DenseSet::decode)?;
    let by_dst = DenseMap::decode_with(r, DenseSet::decode)?;
    let by_dst_node = DenseMap::decode_with(r, DenseSet::decode)?;
    let np = r.seq_len("LandmarkState.pending_corrections")?;
    let mut pending_corrections = Vec::with_capacity(np);
    for _ in 0..np {
        let born = r.u64(CTX)?;
        pending_corrections.push((born, decode_correction(r)?));
    }
    let ns = r.seq_len("LandmarkState.seen_corrections")?;
    let mut seen_corrections = BTreeSet::new();
    let mut prev: Option<(u16, u16)> = None;
    for _ in 0..ns {
        let key = (r.u16(CTX)?, r.u16(CTX)?);
        if prev.is_some_and(|p| key <= p) {
            return Err(SnapshotError::Corrupt {
                context: "LandmarkState.seen_corrections",
            });
        }
        prev = Some(key);
        seen_corrections.insert(key);
    }
    let expect_vec_u64 = |r: &mut Reader<'_>, context: &'static str| {
        let n = r.seq_len(context)?;
        if n != num_landmarks {
            return Err(SnapshotError::Corrupt { context });
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.u64(context)?);
        }
        Ok(v)
    };
    let lb_incoming = expect_vec_u64(r, "LandmarkState.lb_incoming")?;
    let lb_outgoing = expect_vec_u64(r, "LandmarkState.lb_outgoing")?;
    let no = r.seq_len("LandmarkState.overloaded")?;
    if no != num_landmarks {
        return Err(SnapshotError::Corrupt {
            context: "LandmarkState.overloaded",
        });
    }
    let mut overloaded = Vec::with_capacity(no);
    for _ in 0..no {
        overloaded.push(decode_bool(r, "LandmarkState.overloaded")?);
    }
    let unit_seq = r.u64(CTX)?;
    let nc = r.seq_len("LandmarkState.route_cache")?;
    if nc != num_landmarks {
        return Err(SnapshotError::Corrupt {
            context: "LandmarkState.route_cache",
        });
    }
    let mut route_cache = Vec::with_capacity(nc);
    for _ in 0..nc {
        route_cache.push(RouteCacheCell {
            computed: r.u64("RouteCacheCell")?,
            epoch: r.u64("RouteCacheCell")?,
            next: decode_opt_lm(r, "RouteCacheCell.next")?,
            expected: r.f64("RouteCacheCell")?,
            lb_diverted: decode_bool(r, "RouteCacheCell.lb_diverted")?,
            fellback: decode_bool(r, "RouteCacheCell.fellback")?,
        });
    }
    let cache_hits = r.u64(CTX)?;
    let cache_misses = r.u64(CTX)?;
    Ok(LandmarkState {
        rt,
        by_next_hop,
        by_dst,
        by_dst_node,
        pending_corrections,
        seen_corrections,
        lb_incoming,
        lb_outgoing,
        overloaded,
        unit_seq,
        route_cache,
        cache_hits,
        cache_misses,
    })
}

fn decode_bool(r: &mut Reader<'_>, context: &'static str) -> Result<bool, SnapshotError> {
    match r.u8(context)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(SnapshotError::InvalidTag {
            context,
            tag: t as u64,
        }),
    }
}

impl Router for FlowRouter {
    fn name(&self) -> &'static str {
        "DTN-FLOW"
    }

    fn uses_stations(&self) -> bool {
        true
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        let now = world.now();
        // When the fault plan drops this visit's record, the learning
        // pipeline never sees it: no bandwidth measurement, no accuracy
        // settlement, no predictor observation, no stay history. The
        // physical exchanges (packets, carried tables) still happen.
        let recorded = world.visit_recorded();
        // A down station buffers nothing and learns nothing: no bandwidth
        // measurement and no carried-table delivery until it recovers
        // (this is what lets its neighbours' stored vectors go stale).
        let station_up = world.station_is_up(lm);

        // 1. Transit bookkeeping: bandwidth measurement + prediction
        //    settlement.
        let (prev, predicted) = {
            let ns = &self.nodes[node.index()];
            (ns.last_landmark, ns.predicted)
        };
        // `filter` encodes "a transit has a distinct source" in the type:
        // no source, or a revisit of the same landmark, is not a transit.
        let transit_from = if recorded {
            prev.filter(|&p| p != lm)
        } else {
            None
        };
        if let Some(from) = transit_from {
            if station_up {
                self.bw.record_arrival_from(lm, from);
            }
            if let Some((made_at, to, _)) = predicted {
                if made_at == from {
                    self.nodes[node.index()].accuracy.record(from, to == lm);
                }
            }
        }

        // 2. Deliver carried routing info.
        if station_up {
            if let Some(carried) = self.nodes[node.index()].carried.take() {
                if carried.from != lm {
                    let (c_from, c_entries) = (carried.from, carried.entries);
                    let accepted = self.landmarks[lm.index()].rt.receive(
                        carried.from,
                        StoredVector {
                            seq: carried.seq,
                            delays: carried.vector,
                        },
                    );
                    world.record_table_exchange(carried.entries);
                    world.emit(|at| SimEvent::TableExchanged {
                        at,
                        from: c_from,
                        to: lm,
                        entries: c_entries,
                        accepted,
                    });
                    self.stats.tables_received += 1;
                    if let Some((addressee, value, seq)) = carried.report {
                        if addressee == lm && self.bw.apply_report(lm, carried.from, value, seq) {
                            self.stats.reports_applied += 1;
                        }
                    }
                    if accepted {
                        self.recompute_tables(lm, world);
                    }
                    // `carried` is owned here, so the corrections can be
                    // consumed without the clone a borrowed walk would need.
                    for c in carried.corrections {
                        self.apply_correction(world, lm, c);
                    }
                }
            }
        }

        // 3. Update the node's predictor and make the next prediction.
        {
            let ns = &mut self.nodes[node.index()];
            ns.arrival = Some((lm, now));
            ns.episode += 1;
            if recorded {
                ns.predictor.observe(lm);
                ns.predicted = ns.predictor.predict().map(|(to, p)| (lm, to, p));
            }
        }
        // File the node in the carrier rank index now that its predictor
        // is settled for this stay — the uplink below may already need it
        // as a candidate for other packets at this station.
        self.rank_update(node, lm, true);

        // 4. Uplink: hand over deliverable/improvable packets (§IV-D.1).
        let mut carried_pkts = std::mem::take(&mut self.scratch_pkts);
        carried_pkts.clear();
        carried_pkts.extend(world.node_packets(node));
        for &pkt in carried_pkts.iter() {
            let p = world.packet(pkt);
            let dst = p.dst;
            let meta = self.meta_of(pkt);
            let here_delay = self.landmarks[lm.index()].rt.delay_to(dst);
            let upload = dst == lm
                || meta.next_hop == Some(lm)
                || here_delay < meta.expected * (1.0 + self.cfg.mis_transit_tolerance);
            // §IV-D mis-transit: the packet was stamped toward a different
            // landmark than the one its carrier actually reached.
            if meta.next_hop.is_some_and(|nh| nh != lm && dst != lm) {
                world.emit(|at| SimEvent::MisTransit {
                    at,
                    pkt,
                    node,
                    lm,
                    uploaded: upload,
                });
            }
            if !upload {
                continue;
            }
            match world.transfer_to_station(pkt, lm) {
                Ok(out) => {
                    if out.loop_closed {
                        self.handle_loop(world, lm, pkt);
                    }
                    if !out.delivered {
                        self.station_accept(world, lm, pkt, Some(node));
                    }
                }
                Err(_) => continue,
            }
        }

        // 5. §IV-E.4 deliveries: station packets addressed to this node
        //    (reusing the uplink buffer).
        let mut addressed = carried_pkts;
        addressed.clear();
        if let Some(s) = self.landmarks[lm.index()].by_dst_node.get(node) {
            addressed.extend(s.iter());
        }
        for &pkt in addressed.iter() {
            let dst = world.packet(pkt).dst;
            if world.deliver_to_dst_node(pkt, node).is_ok() {
                self.unindex(lm, pkt, dst, Some(node));
            }
        }
        self.scratch_pkts = addressed;

        // 6. Downlink: load the node with packets it can usefully carry.
        self.assign_to_node(world, lm, node);

        // 7. Dead-end timer (§IV-E.1).
        if let Some(de) = self.cfg.dead_end {
            let ns = &self.nodes[node.index()];
            if ns.history.len() >= de.min_stays {
                let overall = ns.history.avg_stay_overall().map(|d| d.secs());
                let here = ns.history.avg_stay_at(lm).map(|d| d.secs());
                let base = match (overall, here) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let Some(avg) = base {
                    let thr = SimDuration::from_secs(((avg as f64) * de.gamma).round() as u64 + 1);
                    world.schedule_timer(
                        now + thr,
                        Self::timer_token(node, self.nodes[node.index()].episode),
                    );
                }
            }
        }
    }

    fn on_depart(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        // The node is leaving: delete its carrier-rank entries (same keys
        // the arrival filed — its predictor state has not moved since).
        self.rank_update(node, lm, false);
        // Last-call downlink: packets that reached this station during the
        // node's stay leave with it if they match its prediction.
        self.assign_to_node(world, lm, node);
        let now = world.now();
        // A visit whose record was lost leaves no trace in the learning
        // pipeline: no stay history, and the next transit is measured
        // from the last *recorded* landmark.
        let recorded = world.visit_recorded();
        {
            let ns = &mut self.nodes[node.index()];
            if let Some((at, since)) = ns.arrival.take() {
                debug_assert_eq!(at, lm);
                if recorded && now > since {
                    ns.history.record(lm, since, now);
                }
            }
            if recorded {
                ns.last_landmark = Some(lm);
            }
            ns.episode += 1;
        }
        // Snapshot the carried routing table + reverse-bandwidth report.
        let predicted_to = self.nodes[node.index()]
            .predicted
            .and_then(|(at, to, _)| (at == lm).then_some(to));
        let st = &self.landmarks[lm.index()];
        let report = predicted_to.map(|h| (h, self.bw.incoming(lm, h), st.unit_seq));
        let corrections = st
            .pending_corrections
            .iter()
            .map(|(_, c)| c.clone())
            .collect();
        self.nodes[node.index()].carried = Some(Carried {
            from: lm,
            seq: st.unit_seq,
            vector: st.rt.snapshot(),
            entries: st.rt.table_size(),
            report,
            corrections,
        });
        let _ = world;
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        // Station-mode packets are born at their source station; anything
        // else would be a sim-side bug, and dropping the event is strictly
        // safer than bringing the whole run down.
        let PacketLoc::AtStation(src) = world.packet(pkt).loc else {
            return;
        };
        self.station_accept(world, src, pkt, None);
    }

    fn on_time_unit(&mut self, world: &mut World, unit: u64) {
        self.unit_prelude(unit);

        for l in 0..self.landmarks.len() {
            let lm = LandmarkId::from(l);
            {
                let st = &mut self.landmarks[l];
                // Snapshot the freshly-folded Eq. 4 estimates for the
                // trace; only links with measured traffic are reported.
                if world.trace_enabled() {
                    for j in (0..st.overloaded.len()).map(LandmarkId::from) {
                        let value = self.bw.incoming(lm, j);
                        if value > 0.0 {
                            world.emit(|at| SimEvent::BandwidthUpdated {
                                at,
                                from: j,
                                to: lm,
                                value,
                            });
                        }
                    }
                }
                // Degradation: age out neighbour vectors that have not
                // been refreshed (e.g. across a station outage) before
                // the recompute below re-ranks routes.
                if let Some(deg) = &self.cfg.degradation {
                    st.rt
                        .decay_stale(unit, deg.staleness_max_age, deg.staleness_factor);
                }
                st.unit_seq = unit;
                st.seen_corrections.clear();
                st.pending_corrections
                    .retain(|(born, _)| unit.saturating_sub(*born) <= 1);
                // Load-balance rates: overloaded when incoming exceeds
                // theta x outgoing with real pressure behind it.
                if let Some(lb) = &self.cfg.load_balance {
                    for h in 0..st.overloaded.len() {
                        st.overloaded[h] = st.lb_incoming[h] >= lb.min_incoming
                            && st.lb_incoming[h] as f64 > lb.theta * st.lb_outgoing[h] as f64;
                    }
                }
                st.lb_incoming.iter_mut().for_each(|c| *c = 0);
                st.lb_outgoing.iter_mut().for_each(|c| *c = 0);
            }
            self.recompute_tables(lm, world);
            self.rebucket(world, lm);
        }

        self.refresh_registrations();
    }

    /// [`FlowRouter::on_time_unit`]'s per-landmark loop fanned out over a
    /// shard runtime (DESIGN.md §13): compute-parallel, commit-ordered.
    ///
    /// The serial prelude (loop injections, the Eq. 4 fold) and every
    /// commit (state put-back, metadata stamps, stats, trace flush) run on
    /// the engine thread in ascending landmark order; only the
    /// independent per-landmark work ([`landmark_unit_work`]) crosses
    /// threads, one shard group per worker. Byte-identical to the
    /// sequential path for any plan — pinned by the differential battery
    /// in `crates/bench`.
    fn on_time_unit_sharded(&mut self, world: &mut World, unit: u64, shards: &Sharding<'_>) {
        if !shards.is_parallel() {
            self.on_time_unit(world, unit);
            return;
        }
        self.unit_prelude(unit);

        let num_landmarks = self.landmarks.len();
        // Take each shard's landmark states out of the router (groups are
        // ascending within a shard, so workers walk them in the sequential
        // loop's relative order).
        let parts: Vec<Vec<(usize, LandmarkState)>> = shards
            .plan
            .groups()
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&l| {
                        (
                            l,
                            std::mem::replace(&mut self.landmarks[l], LandmarkState::vacant()),
                        )
                    })
                    .collect()
            })
            .collect();

        let trace_on = world.trace_enabled();
        let view = world.view();
        let bw = &self.bw;
        let cfg = &self.cfg;
        let known_down = &self.known_down;
        let route_epoch = self.route_epoch;
        let meta = &self.meta;
        let results = shards.exec.map_parts(parts, |_, group| {
            group
                .into_iter()
                .map(|(l, st)| {
                    landmark_unit_work(
                        l,
                        st,
                        unit,
                        trace_on,
                        &view,
                        bw,
                        cfg,
                        known_down,
                        route_epoch,
                        meta,
                    )
                })
                .collect::<Vec<LandmarkUnitResult>>()
        });

        // Commit in ascending landmark order regardless of which shard
        // computed what (round-robin and adversarial plans interleave).
        let mut all: Vec<LandmarkUnitResult> = results.into_iter().flatten().collect();
        all.sort_unstable_by_key(|r| r.l);
        let mut bufs = ShardBuffers::new(num_landmarks);
        for r in all {
            self.landmarks[r.l] = r.st;
            for (pkt, m) in r.metas {
                self.set_meta(pkt, m);
            }
            self.stats.fallback_reroutes += r.fallbacks;
            bufs.set(r.l, r.events);
        }
        world.flush_shard_buffers(&mut bufs);

        self.refresh_registrations_sharded(shards.exec);
    }

    fn on_observe(&mut self, world: &mut World, idx: usize) {
        if world.trace_enabled() {
            for (l, st) in self.landmarks.iter().enumerate() {
                let lm = LandmarkId::from(l);
                let coverage = st.rt.coverage();
                let revision = st.rt.revision();
                world.emit(|at| SimEvent::RouteCoverage {
                    at,
                    lm,
                    coverage,
                    revision,
                });
                let (hits, misses) = (st.cache_hits, st.cache_misses);
                world.emit(|at| SimEvent::RouteCacheHit {
                    at,
                    lm,
                    count: hits,
                });
                world.emit(|at| SimEvent::RouteCacheMiss {
                    at,
                    lm,
                    count: misses,
                });
            }
        }
        let per_landmark = self
            .landmarks
            .iter()
            .map(|st| (st.rt.coverage(), st.rt.next_hops()))
            .collect();
        self.observer.observe(idx, per_landmark);
    }

    fn on_timer(&mut self, world: &mut World, token: u64) {
        // Station-recovery retries share the timer channel with dead-end
        // detection; the tag bit separates the namespaces.
        if let Some(lm) = Self::decode_retry_token(token) {
            self.process_stranded_retries(world, lm);
            return;
        }
        let Some(de) = self.cfg.dead_end else { return };
        let (node, episode) = Self::decode_token(token);
        if node.index() >= self.nodes.len() {
            return;
        }
        {
            let ns = &self.nodes[node.index()];
            if ns.episode != episode {
                return; // the stay this timer was armed for has ended
            }
        }
        let Some((lm, since)) = self.nodes[node.index()].arrival else {
            return;
        };
        let elapsed = world.now().since(since);
        let stuck =
            self.nodes[node.index()]
                .history
                .is_dead_end(lm, elapsed, de.gamma, de.min_stays);
        if !stuck {
            return;
        }
        self.stats.dead_ends_detected += 1;
        // Hand packets back to the landmark so other nodes can take over
        // (§IV-E.1) — but only those the landmark can route onward
        // (the station "utilizes its routing table to decide the next-hop
        // landmark ... and forwards them to the nodes that can carry them
        // out"); a station with no route would just strand the packet.
        let pkts: Vec<PacketId> = world
            .node_packets(node)
            .filter(|&p| {
                let dst = world.packet(p).dst;
                dst == lm || self.landmarks[lm.index()].rt.delay_to(dst).is_finite()
            })
            .collect();
        for pkt in pkts {
            match world.transfer_to_station(pkt, lm) {
                Ok(out) => {
                    if out.loop_closed {
                        self.handle_loop(world, lm, pkt);
                    }
                    if !out.delivered {
                        self.station_accept(world, lm, pkt, Some(node));
                    }
                }
                Err(_) => continue,
            }
        }
    }

    fn on_station_down(&mut self, world: &mut World, lm: LandmarkId) {
        self.known_down[lm.index()] = true;
        self.route_epoch += 1; // `known_down` changed: stale route caches
        if self.cfg.degradation.is_none() {
            return;
        }
        // Re-stamp packets at other stations that were aimed at the downed
        // landmark, so carriers stop ferrying toward a dead end and the
        // backup next hop takes over where one exists.
        let affected: Vec<LandmarkId> = (0..self.landmarks.len())
            .map(LandmarkId::from)
            .filter(|&l| {
                l != lm
                    && world.station_is_up(l)
                    && self.landmarks[l.index()]
                        .by_next_hop
                        .get(lm)
                        .is_some_and(|s| !s.is_empty())
            })
            .collect();
        for l in affected {
            self.rebucket(world, l);
        }
    }

    fn on_station_up(&mut self, world: &mut World, lm: LandmarkId) {
        self.known_down[lm.index()] = false;
        self.route_epoch += 1; // `known_down` changed: stale route caches
        let Some(deg) = self.cfg.degradation else {
            return;
        };
        // Recompute routes with the landmark available again, then hand
        // the stranded-packet scan to the timing wheel: the retry fires
        // as an ordinary shard-local timer event — immediately with the
        // default zero delay, or after the configured grace period (in
        // which case it survives checkpoints like any pending timer).
        self.recompute_tables(lm, world);
        let at = world.now() + SimDuration::from_secs(deg.retry_delay_secs);
        world.schedule_timer(at, Self::retry_token(lm));
    }

    fn on_node_fail(&mut self, _world: &mut World, node: NodeId, at: Option<LandmarkId>) {
        // A node that dies while connected leaves without an `on_depart`:
        // delete its carrier-rank entries here instead (the predictor
        // state the keys derive from is untouched by the failure).
        if let Some(lm) = at {
            self.rank_update(node, lm, false);
        }
        // Everything the node carried (packets, snapshot tables) is
        // already destroyed by the engine. Reset the router-side view of
        // its in-flight state; its long-term mobility model (predictor,
        // accuracy, stay history) is the node's own persistent memory and
        // survives the failure, so it rejoins with it intact.
        let ns = &mut self.nodes[node.index()];
        ns.carried = None;
        ns.predicted = None;
        ns.arrival = None;
        // Clearing this keeps the failure gap out of the bandwidth
        // measurements: the first post-recovery arrival is not a transit.
        ns.last_landmark = None;
        ns.episode += 1; // stale dead-end timers no-op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::config::SimConfig;
    use dtnflow_core::geometry::Point;
    use dtnflow_core::time::{SimTime, DAY};
    use dtnflow_mobility::{Trace, Visit};
    use dtnflow_sim::run;

    /// A three-landmark corridor: node 0 shuttles l0<->l1, node 1 shuttles
    /// l1<->l2, daily. No node ever visits both ends, so only inter-
    /// landmark relaying can deliver l0->l2 packets.
    fn corridor_trace(days: u64) -> Trace {
        let mut visits = Vec::new();
        for d in 0..days {
            let base = d * 86_400;
            // Node 0: l0 morning, l1 noon, l0 evening.
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 1_000),
                SimTime(base + 10_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(1),
                SimTime(base + 20_000),
                SimTime(base + 30_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 40_000),
                SimTime(base + 50_000),
            ));
            // Node 1: l1 late morning, l2 afternoon, l1 night — offset so
            // it picks up what node 0 dropped at l1.
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 32_000),
                SimTime(base + 42_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(2),
                SimTime(base + 52_000),
                SimTime(base + 62_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 72_000),
                SimTime(base + 82_000),
            ));
        }
        let positions = (0..3).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
        Trace::new("corridor", 2, 3, positions, visits).unwrap()
    }

    fn corridor_cfg() -> SimConfig {
        SimConfig {
            packets_per_landmark_per_day: 6.0,
            ttl: DAY.mul(6),
            time_unit: DAY,
            seed: 11,
            ..SimConfig::default()
        }
    }

    #[test]
    fn relays_across_landmarks_without_end_to_end_carriers() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let out = run(&trace, &cfg, &mut router);
        assert!(out.metrics.generated > 0);
        // l0 -> l2 (and reverse) packets require the two-hop relay; a
        // healthy DTN-FLOW delivers most packets.
        assert!(
            out.metrics.success_rate() > 0.6,
            "success {}",
            out.metrics.success_rate()
        );
        // Multi-hop deliveries exist: some packet crossed l0 -> l1 -> l2.
        let crossed = out
            .packets
            .iter()
            .any(|p| matches!(p.loc, PacketLoc::Delivered(_)) && p.visited.len() >= 2);
        assert!(crossed, "expected at least one relayed delivery");
        assert!(out.metrics.maintenance_ops > 0.0, "tables were exchanged");
    }

    #[test]
    fn fallback_next_hop_avoids_known_down_landmark() {
        // l0 routes to l3 via l1 (delay 6) with backup l2 (delay 7).
        let mut router = FlowRouter::new(FlowConfig::with_degradation(), 2, 4);
        let mk = |pairs: &[(usize, f64)], seq| {
            let mut delays = vec![f64::INFINITY; 4];
            for &(d, v) in pairs {
                delays[d] = v;
            }
            StoredVector { seq, delays }
        };
        let link = |l: LandmarkId| match l.index() {
            1 => 1.0,
            2 => 2.0,
            _ => f64::INFINITY,
        };
        let st = &mut router.landmarks[0];
        st.rt.receive(LandmarkId(1), mk(&[(1, 0.0), (3, 5.0)], 1));
        st.rt.receive(LandmarkId(2), mk(&[(2, 0.0), (3, 5.0)], 1));
        st.rt.recompute(&link);

        // Healthy: the primary wins, no fallback flagged.
        let (next, delay, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(1)));
        assert!((delay - 6.0).abs() < 1e-12);
        assert!(!fellback);

        // Primary's landmark is known down: divert to the backup. Every
        // raw `known_down` write mirrors the station-fault path's epoch
        // bump — that is the route-cache invalidation contract.
        router.known_down[1] = true;
        router.route_epoch += 1;
        let (next, delay, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(2)));
        assert!((delay - 7.0).abs() < 1e-12);
        assert!(fellback);

        // Backup down too: nothing better exists, keep the primary.
        router.known_down[2] = true;
        router.route_epoch += 1;
        let (next, _, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(1)));
        assert!(!fellback);

        // Without the degradation extension the down-set is ignored.
        router.cfg.degradation = None;
        router.known_down[2] = false;
        router.route_epoch += 1;
        let (next, _, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(1)));
        assert!(!fellback);
    }

    #[test]
    fn sharded_unit_boundaries_match_sequential_exactly() {
        // The compute-parallel unit boundary must reproduce the sequential
        // run bit-for-bit: metrics, packet states, extension counters,
        // routing tables AND the full trace-event stream — under balanced,
        // striped and adversarial partitions, with the extension features
        // (load balance, degradation) switched on.
        use dtnflow_core::ids::PacketId;
        use dtnflow_sim::{
            run_traced, FaultPlan, Recorder, ShardExec, ShardPlan, SimSession, Workload,
        };
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let workload = Workload::uniform(&cfg, trace.num_landmarks(), trace.duration());
        for flow in [FlowConfig::default(), FlowConfig::with_degradation()] {
            let mut base_router = FlowRouter::new(flow.clone(), 2, 3);
            let base = run_traced(
                &trace,
                &cfg,
                &workload,
                &FaultPlan::none(),
                &mut base_router,
                Box::new(Recorder::new(1 << 14)),
            );
            let base_rec = Recorder::downcast(base.trace.unwrap()).unwrap();
            let base_events: Vec<_> = base_rec.events().cloned().collect();
            let plans = [
                ShardPlan::contiguous(3, 2),
                ShardPlan::round_robin(3, 3),
                // Adversarial: everything on one shard of eight.
                ShardPlan::from_assignment(vec![7, 7, 7], 8).unwrap(),
            ];
            for plan in plans {
                let threads = plan.num_shards();
                let mut router = FlowRouter::new(flow.clone(), 2, 3);
                let mut session = SimSession::start_sharded(
                    &trace,
                    &cfg,
                    &workload,
                    &FaultPlan::none(),
                    &mut router,
                    Some(Box::new(Recorder::new(1 << 14))),
                    plan.clone(),
                    ShardExec::new(threads),
                );
                session.run_to_end();
                let out = session.finish();
                assert_eq!(
                    format!("{:?}", out.metrics),
                    format!("{:?}", base.metrics),
                    "metrics diverged under {plan:?}"
                );
                assert_eq!(
                    format!("{:?}", out.packets),
                    format!("{:?}", base.packets),
                    "packets diverged under {plan:?}"
                );
                assert_eq!(
                    router.stats(),
                    base_router.stats(),
                    "stats diverged under {plan:?}"
                );
                for l in 0..3 {
                    let lm = LandmarkId::from(l);
                    assert_eq!(
                        format!("{:?}", router.routing_rows(lm)),
                        format!("{:?}", base_router.routing_rows(lm)),
                        "routing table {l} diverged under {plan:?}"
                    );
                }
                let rec = Recorder::downcast(out.trace.unwrap()).unwrap();
                let events: Vec<_> = rec.events().cloned().collect();
                assert_eq!(events, base_events, "trace diverged under {plan:?}");
                // Packet metadata stamps must agree too.
                for i in 0..base.packets.len() {
                    let pkt = PacketId::from(i);
                    assert_eq!(
                        router.stamped_next_hop(pkt),
                        base_router.stamped_next_hop(pkt),
                        "meta diverged for packet {i} under {plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bandwidth_tables_learn_the_corridor() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = run(&trace, &cfg, &mut router);
        // l0 sees ~2 transits/day to l1 (node 0 shuttling), none to l2.
        let b01 = router.bandwidth(LandmarkId(0), LandmarkId(1));
        let b02 = router.bandwidth(LandmarkId(0), LandmarkId(2));
        assert!(b01 > 0.5, "b01 {b01}");
        assert!(b02 < 0.05, "b02 {b02}");
    }

    #[test]
    fn routing_tables_point_down_the_corridor() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = run(&trace, &cfg, &mut router);
        let rows = router.routing_rows(LandmarkId(0));
        let to_l2 = rows.iter().find(|(d, _, _)| *d == LandmarkId(2));
        let (_, next, delay) = to_l2.expect("l0 must know a route to l2");
        assert_eq!(*next, LandmarkId(1), "l0 routes to l2 via l1");
        assert!(delay.is_finite());
    }

    #[test]
    fn predictions_become_confident_on_periodic_movement() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = run(&trace, &cfg, &mut router);
        // Node 0 ends at l0 (last visit), so prediction is l1 next.
        let (to, prob) = router.prediction(NodeId(0)).expect("prediction exists");
        assert_eq!(to, LandmarkId(1));
        assert!(prob > 0.9, "prob {prob}");
    }

    #[test]
    fn observer_rows_cover_and_stabilize() {
        let trace = corridor_trace(16);
        let mut cfg = corridor_cfg();
        cfg.observe_points = 10;
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = run(&trace, &cfg, &mut router);
        let rows = router.observations();
        assert_eq!(rows.len(), 10);
        let last = rows.last().unwrap();
        assert!(last.avg_coverage > 0.9, "coverage {}", last.avg_coverage);
        assert!(last.avg_stability > 0.9, "stability {}", last.avg_stability);
    }

    #[test]
    fn dead_end_detection_rescues_packets() {
        // Node 0 shuttles for a while, then gets stuck at l1 for days.
        let mut visits = Vec::new();
        for d in 0..10u64 {
            let base = d * 86_400;
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 1_000),
                SimTime(base + 10_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(1),
                SimTime(base + 20_000),
                SimTime(base + 30_000),
            ));
            // Node 1 also shuttles l1 <-> l0, slightly offset.
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 32_000),
                SimTime(base + 40_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(0),
                SimTime(base + 50_000),
                SimTime(base + 60_000),
            ));
        }
        // Day 10: node 0 arrives at l1 and never leaves (maintenance).
        visits.push(Visit::new(
            NodeId(0),
            LandmarkId(1),
            SimTime(10 * 86_400),
            SimTime(14 * 86_400),
        ));
        // Node 1 keeps shuttling during the stall.
        for d in 10..14u64 {
            let base = d * 86_400;
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 32_000),
                SimTime(base + 40_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(0),
                SimTime(base + 50_000),
                SimTime(base + 60_000),
            ));
        }
        let positions = (0..2).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
        let trace = Trace::new("stall", 2, 2, positions, visits).unwrap();
        let cfg = SimConfig {
            packets_per_landmark_per_day: 4.0,
            ttl: DAY.mul(3),
            time_unit: DAY,
            seed: 5,
            ..SimConfig::default()
        };
        let flow = FlowConfig {
            dead_end: Some(crate::config::DeadEndConfig {
                gamma: 2.0,
                min_stays: 5,
            }),
            ..FlowConfig::default()
        };
        let mut router = FlowRouter::new(flow, 2, 2);
        let _ = run(&trace, &cfg, &mut router);
        assert!(
            router.stats().dead_ends_detected > 0,
            "the four-day stall must be detected"
        );
    }

    /// Like the corridor, but the l0<->l1 leg runs at twice the bandwidth
    /// of l1<->l2, so a falsified near-zero claim makes the cheap backward
    /// link attractive and a real routing loop forms (the Fig. 9
    /// scenario: via-l0 = ½T + ε beats the direct 1T link at l1).
    fn asymmetric_corridor_trace(days: u64) -> Trace {
        let mut visits = Vec::new();
        for d in 0..days {
            let base = d * 86_400;
            // Node 0: two l0<->l1 round trips per day.
            for (k, s) in [(0u64, 1_000u64), (1, 43_000)] {
                let o = base + s + k; // k keeps instants distinct
                visits.push(Visit::new(
                    NodeId(0),
                    LandmarkId(0),
                    SimTime(o),
                    SimTime(o + 6_000),
                ));
                visits.push(Visit::new(
                    NodeId(0),
                    LandmarkId(1),
                    SimTime(o + 10_000),
                    SimTime(o + 16_000),
                ));
                visits.push(Visit::new(
                    NodeId(0),
                    LandmarkId(0),
                    SimTime(o + 20_000),
                    SimTime(o + 26_000),
                ));
            }
            // Node 1: one l1<->l2 round trip per day.
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 30_000),
                SimTime(base + 36_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(2),
                SimTime(base + 40_000),
                SimTime(base + 46_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 50_000),
                SimTime(base + 56_000),
            ));
        }
        let positions = (0..3).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
        Trace::new("asym-corridor", 2, 3, positions, visits).unwrap()
    }

    #[test]
    fn injected_loop_is_detected_and_corrected() {
        let trace = asymmetric_corridor_trace(16);
        let cfg = corridor_cfg();
        let inject = vec![LoopInjection {
            at_unit: 6,
            members: vec![LandmarkId(0), LandmarkId(1)],
            dest: LandmarkId(2),
        }];
        let flow = FlowConfig {
            loop_correction: true,
            inject_loops: inject.clone(),
            ..FlowConfig::default()
        };
        let mut with = FlowRouter::new(flow, 2, 3);
        let out_with = run(&trace, &cfg, &mut with);
        assert!(
            with.stats().loops_detected > 0,
            "looping packets must be noticed"
        );
        // Corrected run still delivers most packets.
        assert!(
            out_with.metrics.success_rate() > 0.5,
            "success {}",
            out_with.metrics.success_rate()
        );
        // Without correction the loops are never acted upon: the router
        // keeps bouncing packets (detections keep accumulating) and
        // success suffers relative to the corrected run.
        let flow_org = FlowConfig {
            loop_correction: false,
            inject_loops: inject,
            ..FlowConfig::default()
        };
        let mut org = FlowRouter::new(flow_org, 2, 3);
        let out_org = run(&trace, &cfg, &mut org);
        assert!(
            out_with.metrics.success_rate() >= out_org.metrics.success_rate(),
            "correction must not hurt: with {} vs org {}",
            out_with.metrics.success_rate(),
            out_org.metrics.success_rate()
        );
    }

    #[test]
    fn send_to_node_uses_registrations() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();

        struct Wrapper {
            inner: FlowRouter,
            sent: bool,
            created: Vec<PacketId>,
        }
        impl Router for Wrapper {
            fn name(&self) -> &'static str {
                "wrapper"
            }
            fn uses_stations(&self) -> bool {
                true
            }
            fn on_arrive(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
                self.inner.on_arrive(w, n, l);
            }
            fn on_depart(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
                self.inner.on_depart(w, n, l);
            }
            fn on_packet_generated(&mut self, w: &mut World, p: PacketId) {
                self.inner.on_packet_generated(w, p);
            }
            fn on_time_unit(&mut self, w: &mut World, u: u64) {
                self.inner.on_time_unit(w, u);
                // Mid-run, send a packet from l2's subarea to node 0
                // (who frequents l0/l1, never l2).
                if u == 8 && !self.sent {
                    self.sent = true;
                    self.created = self.inner.send_to_node(w, LandmarkId(2), NodeId(0));
                }
            }
            fn on_timer(&mut self, w: &mut World, t: u64) {
                self.inner.on_timer(w, t);
            }
        }

        let mut router = Wrapper {
            inner: FlowRouter::new(FlowConfig::default(), 2, 3),
            sent: false,
            created: Vec::new(),
        };
        let out = run(&trace, &cfg, &mut router);
        assert!(!router.created.is_empty(), "copies were created");
        // At least one copy reached node 0.
        let delivered = router
            .created
            .iter()
            .any(|&p| matches!(out.packets[p.index()].loc, PacketLoc::Delivered(_)));
        assert!(delivered, "node-addressed packet must reach node 0");
        // Registrations for node 0 are its frequent haunts.
        let regs = router.inner.registered_landmarks(NodeId(0));
        assert!(regs.contains(&LandmarkId(0)) || regs.contains(&LandmarkId(1)));
    }

    #[test]
    fn timer_token_roundtrip() {
        let (n, e) = FlowRouter::decode_token(FlowRouter::timer_token(NodeId(123), 456));
        assert_eq!(n, NodeId(123));
        assert_eq!(e, 456);
    }
}
