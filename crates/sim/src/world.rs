//! Simulation state and the transfer primitives routers build on.
//!
//! The [`World`] owns every packet, every store, node locations, the run
//! metrics, and — when a radio budget is configured — the per-landmark
//! uplink/downlink budget. Routers never mutate this state directly; they
//! call the transfer methods, which enforce the physical rules every
//! algorithm plays by: co-location, memory limits, TTLs, and single-copy
//! semantics.

use crate::store::{PacketStore, SlotIndex, StationStore};
use dtnflow_core::config::SimConfig;
use dtnflow_core::dense::DenseSet;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::metrics::RunMetrics;
use dtnflow_core::packet::{Packet, PacketLoc};
use dtnflow_core::time::SimTime;
use dtnflow_core::wheel::{TimingWheel, WheelEntry};
use dtnflow_obs::{EventBuffer, LossKind, Place, ShardBuffers, SimEvent, TraceSink};
use dtnflow_shard::ShardExec;
use dtnflow_snapshot::{Reader, SnapshotError, Writer};

/// Map a live packet location to its observability [`Place`]; terminal
/// states have no place.
fn place_of(loc: PacketLoc) -> Option<Place> {
    match loc {
        PacketLoc::PendingAtSource(l) => Some(Place::Pending(l)),
        PacketLoc::OnNode(n) => Some(Place::Node(n)),
        PacketLoc::AtStation(l) => Some(Place::Station(l)),
        _ => None,
    }
}

/// Checkpoint validation: whether every one of `members` is a known
/// packet located at `here`, and `used` is their count times `size`.
fn store_is_consistent(
    packets: &[Packet],
    members: impl Iterator<Item = PacketId>,
    used: u64,
    size: u64,
    here: PacketLoc,
) -> bool {
    let mut count = 0u64;
    for pkt in members {
        if packets.get(pkt.index()).map(|p| p.loc) != Some(here) {
            return false;
        }
        count += 1;
    }
    count.checked_mul(size) == Some(used)
}

/// Why a transfer was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// The packet is already delivered, expired, or lost.
    NotLive,
    /// The packet's TTL elapsed; it has now been dropped.
    Expired,
    /// Source and target are not at the same landmark.
    NotColocated,
    /// The receiving node has no room.
    NoSpace,
    /// The packet is already exactly where it was asked to go.
    SamePlace,
    /// The landmark's radio budget for this time unit is exhausted
    /// (only with `SimConfig::radio_budget_per_unit`).
    RadioBusy,
    /// The landmark's station is down (fault injection): it neither
    /// accepts uplinks nor serves downloads until it recovers.
    StationDown,
}

/// Why constructing a [`World`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// The simulation config failed its own validation.
    InvalidConfig(String),
    /// A world needs at least one node and one landmark.
    EmptyNetwork {
        num_nodes: usize,
        num_landmarks: usize,
    },
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
            WorldError::EmptyNetwork {
                num_nodes,
                num_landmarks,
            } => write!(
                f,
                "world needs at least one node and one landmark, got {num_nodes} nodes / {num_landmarks} landmarks"
            ),
        }
    }
}

impl std::error::Error for WorldError {}

/// Why a packet was destroyed by an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// A station outage (generated at a down station, or retries at a
    /// failed station exhausted).
    Outage,
    /// The node carrying it failed.
    Churn,
}

/// What a station upload achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOutcome {
    /// The station was the packet's destination: it has been delivered.
    pub delivered: bool,
    /// The packet had already visited this station: a routing loop closed
    /// (§IV-E.2).
    pub loop_closed: bool,
}

/// A read-only, thread-shareable view of the state sharded compute
/// phases may consult (DESIGN.md §13).
///
/// [`World`] itself cannot cross threads — its trace sink is a
/// `Box<dyn TraceSink>` without a `Sync` bound — so parallel workers get
/// this borrowed slice-level view instead: packets, station contents,
/// the run config and the clock. Everything here is plain data; nothing
/// a worker reads through it can be concurrently mutated, because the
/// engine only hands views out while the world is otherwise frozen.
#[derive(Debug, Clone, Copy)]
pub struct WorldView<'a> {
    packets: &'a [Packet],
    station_store: &'a [StationStore],
    cfg: &'a SimConfig,
    now: SimTime,
    node_loc: &'a [Option<LandmarkId>],
    present: &'a [DenseSet<NodeId>],
    station_up: &'a [bool],
    node_failed: &'a [bool],
}

impl<'a> WorldView<'a> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run configuration.
    pub fn config(&self) -> &'a SimConfig {
        self.cfg
    }

    /// Immutable view of a packet.
    pub fn packet(&self, id: PacketId) -> &'a Packet {
        &self.packets[id.index()]
    }

    /// Packets stored at a station, written into `out` ascending by id —
    /// same contract as [`World::station_packets`].
    pub fn station_packets(&self, lm: LandmarkId, out: &mut Vec<PacketId>) {
        self.station_store[lm.index()].sorted_into(out);
    }

    /// Number of packets at a station.
    pub fn station_packet_count(&self, lm: LandmarkId) -> usize {
        self.station_store[lm.index()].len()
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.station_store.len()
    }

    /// The landmark a node is currently associated with, as of the
    /// freeze point.
    #[inline]
    pub fn node_location(&self, node: NodeId) -> Option<LandmarkId> {
        self.node_loc[node.index()]
    }

    /// Nodes at a landmark as of the freeze point, ascending by id —
    /// same order as [`World::nodes_at`].
    #[inline]
    pub fn nodes_at(&self, lm: LandmarkId) -> &'a DenseSet<NodeId> {
        &self.present[lm.index()]
    }

    /// Station liveness as of the freeze point.
    #[inline]
    pub fn station_is_up(&self, lm: LandmarkId) -> bool {
        self.station_up[lm.index()]
    }

    /// Node failure state as of the freeze point.
    #[inline]
    pub fn node_is_failed(&self, node: NodeId) -> bool {
        self.node_failed[node.index()]
    }
}

/// The complete simulation state.
#[derive(Debug)]
pub struct World {
    // detlint: allow(S1, reason = "run input, not state: decode_state receives the same SimConfig the run started with")
    cfg: SimConfig,
    now: SimTime,
    // detlint: allow(S1, reason = "network dimension, supplied to decode_state and cross-checked against the snapshot")
    num_nodes: usize,
    // detlint: allow(S1, reason = "network dimension, supplied to decode_state and cross-checked against the snapshot")
    num_landmarks: usize,
    packets: Vec<Packet>,
    node_store: Vec<PacketStore>,
    station_store: Vec<StationStore>,
    /// Each packet's position in its station's store (DESIGN.md §16).
    /// Pages are added by station inserts only, so runs that never use
    /// stations never allocate it.
    // detlint: allow(S1, reason = "derived slot index, rebuilt from station_store by decode_state")
    station_slot: SlotIndex,
    /// Packets generated in a subarea and not yet picked up (no-station
    /// routers only).
    pending: Vec<DenseSet<PacketId>>,
    /// Reusable packet-id buffer for per-arrival scans (never observable:
    /// always cleared before use).
    // detlint: allow(S1, reason = "scratch buffer, always cleared before use")
    scratch_pkts: Vec<PacketId>,
    node_loc: Vec<Option<LandmarkId>>,
    // detlint: allow(S1, reason = "derived occupancy index, rebuilt from node_loc by decode_state")
    present: Vec<DenseSet<NodeId>>,
    metrics: RunMetrics,
    /// Remaining node↔station transfers this time unit, per landmark.
    radio_budget: Option<Vec<u64>>,
    /// Station liveness (fault injection); all `true` without faults.
    station_up: Vec<bool>,
    /// Node failure state (fault injection); all `false` without faults.
    node_failed: Vec<bool>,
    /// Set per landmark when its outage ends; cleared (and the recovery
    /// time recorded) by the station's first successful transfer after.
    awaiting_recovery: Vec<Option<SimTime>>,
    /// Whether the visit being dispatched had its trace record survive
    /// (fault injection; `true` outside fault runs). Routers must skip
    /// predictor/history learning when this is `false`.
    visit_recorded: bool,
    /// Packet deadlines in a hierarchical timing wheel (DESIGN.md §14).
    /// Every created non-stillborn packet is filed once at creation
    /// under `(deadline, id)`; purges drain the wheel instead of
    /// scanning all packets. Because every packet shares `cfg.ttl`,
    /// deadlines are non-decreasing in packet id, so the wheel's
    /// `(deadline, id)` drain order IS the ascending-id order the old
    /// scan produced. Entries of packets that died early (delivered,
    /// lost, expired on touch) stay filed and are skipped when drained.
    expiry: TimingWheel,
    /// Reusable drain buffer for [`World::purge_expired`].
    // detlint: allow(S1, reason = "scratch buffer, always cleared before use")
    scratch_fired: Vec<WheelEntry>,
    /// Timers requested by the router, drained by the engine.
    pub(crate) pending_timers: Vec<(SimTime, u64)>,
    /// Attached observability sink (`None` = tracing disabled; event
    /// construction is skipped entirely, see [`World::emit`]).
    // detlint: allow(S1, reason = "sink handle, not state: the recorder checkpoints itself via encode_recorder; the handle is re-attached on resume")
    trace: Option<Box<dyn TraceSink>>,
}

impl World {
    /// Create a world with empty stores and everyone off-network.
    ///
    /// Panics on an invalid config or empty network; use [`World::try_new`]
    /// to surface those as errors instead.
    pub fn new(cfg: SimConfig, num_nodes: usize, num_landmarks: usize) -> Self {
        match Self::try_new(cfg, num_nodes, num_landmarks) {
            Ok(w) => w,
            // detlint: allow(P1, reason = "documented panicking constructor; try_new is the fallible path")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction: a malformed config or an empty network is an
    /// `Err`, so experiment sweeps can skip a bad point instead of
    /// aborting.
    pub fn try_new(
        cfg: SimConfig,
        num_nodes: usize,
        num_landmarks: usize,
    ) -> Result<Self, WorldError> {
        cfg.validate().map_err(WorldError::InvalidConfig)?;
        if num_nodes == 0 || num_landmarks == 0 {
            return Err(WorldError::EmptyNetwork {
                num_nodes,
                num_landmarks,
            });
        }
        let radio_budget = cfg.radio_budget_per_unit.map(|b| vec![b; num_landmarks]);
        Ok(World {
            now: SimTime::ZERO,
            num_nodes,
            num_landmarks,
            packets: Vec::new(),
            node_store: (0..num_nodes)
                .map(|_| PacketStore::bounded(cfg.node_memory))
                .collect(),
            station_store: vec![StationStore::new(); num_landmarks],
            station_slot: SlotIndex::new(),
            pending: vec![DenseSet::new(); num_landmarks],
            scratch_pkts: Vec::new(),
            node_loc: vec![None; num_nodes],
            present: vec![DenseSet::new(); num_landmarks],
            metrics: RunMetrics::default(),
            radio_budget,
            station_up: vec![true; num_landmarks],
            node_failed: vec![false; num_nodes],
            awaiting_recovery: vec![None; num_landmarks],
            visit_recorded: true,
            expiry: TimingWheel::new(),
            scratch_fired: Vec::new(),
            pending_timers: Vec::new(),
            trace: None,
            cfg,
        })
    }

    // ---- read-only state -------------------------------------------------

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of mobile nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.num_landmarks
    }

    /// Immutable view of a packet.
    pub fn packet(&self, id: PacketId) -> &Packet {
        &self.packets[id.index()]
    }

    /// All packets created so far (diagnostics; includes finished ones).
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// The landmark a node is currently associated with.
    pub fn node_location(&self, node: NodeId) -> Option<LandmarkId> {
        self.node_loc[node.index()]
    }

    /// Nodes currently at a landmark, ascending by id.
    pub fn nodes_at(&self, lm: LandmarkId) -> &DenseSet<NodeId> {
        &self.present[lm.index()]
    }

    /// Packets in a node's memory, ascending by id.
    pub fn node_packets(&self, node: NodeId) -> impl Iterator<Item = PacketId> + '_ {
        self.node_store[node.index()].iter()
    }

    /// Number of packets in a node's memory.
    pub fn node_packet_count(&self, node: NodeId) -> usize {
        self.node_store[node.index()].len()
    }

    /// Free bytes in a node's memory.
    pub fn node_free_bytes(&self, node: NodeId) -> u64 {
        self.node_store[node.index()].free_bytes()
    }

    /// Whether one more packet fits in a node's memory.
    pub fn node_has_space(&self, node: NodeId) -> bool {
        self.node_store[node.index()].fits(self.cfg.packet_size)
    }

    /// Packets stored at a station, written into `out` (cleared first)
    /// ascending by id. The store itself is unordered, so this sorts:
    /// call it once per scan and reuse `out` across calls.
    pub fn station_packets(&self, lm: LandmarkId, out: &mut Vec<PacketId>) {
        self.station_store[lm.index()].sorted_into(out);
    }

    /// Number of packets at a station.
    pub fn station_packet_count(&self, lm: LandmarkId) -> usize {
        self.station_store[lm.index()].len()
    }

    /// Bytes stored at a station.
    pub fn station_used_bytes(&self, lm: LandmarkId) -> u64 {
        self.station_store[lm.index()].used_bytes()
    }

    /// Packets pending pickup in a subarea (no-station routers).
    pub fn pending_at(&self, lm: LandmarkId) -> impl Iterator<Item = PacketId> + '_ {
        self.pending[lm.index()].iter()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Whether the station at `lm` is currently up (always `true` outside
    /// fault-injection runs).
    #[inline]
    pub fn station_is_up(&self, lm: LandmarkId) -> bool {
        self.station_up[lm.index()]
    }

    /// Whether `node` is currently failed (off-network due to churn).
    #[inline]
    pub fn node_is_failed(&self, node: NodeId) -> bool {
        self.node_failed[node.index()]
    }

    /// Whether the trace record of the visit being dispatched survived.
    /// `false` only during fault runs with record loss: the contact is
    /// physically happening, but routers must not learn from it.
    #[inline]
    pub fn visit_recorded(&self) -> bool {
        self.visit_recorded
    }

    /// A read-only view safe to share across shard workers (the world
    /// itself stays on the engine thread).
    pub fn view(&self) -> WorldView<'_> {
        WorldView {
            packets: &self.packets,
            station_store: &self.station_store,
            cfg: &self.cfg,
            now: self.now,
            node_loc: &self.node_loc,
            present: &self.present,
            station_up: &self.station_up,
            node_failed: &self.node_failed,
        }
    }

    // ---- observability ---------------------------------------------------

    /// Attach an observability sink; subsequent state changes emit
    /// [`SimEvent`]s into it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detach and return the sink (e.g. to downcast a recorder after a
    /// run).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Borrow the attached sink without detaching it (checkpointing).
    pub(crate) fn trace_sink_mut(&mut self) -> Option<&mut (dyn TraceSink + 'static)> {
        self.trace.as_deref_mut()
    }

    /// Whether a sink is attached. Emission call sites that need to do
    /// extra work to *assemble* an event (beyond moving already-computed
    /// values) should check this first.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Emit one event. The closure receives the current [`SimTime`] and is
    /// only invoked while a sink is attached — with tracing disabled, not
    /// even the event struct is constructed (zero overhead).
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce(SimTime) -> SimEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(make(self.now));
        }
    }

    // ---- router services -------------------------------------------------

    /// Ask the engine to call `Router::on_timer(token)` at `at` (clamped to
    /// now if already past).
    pub fn schedule_timer(&mut self, at: SimTime, token: u64) {
        self.pending_timers.push((at.max(self.now), token));
    }

    /// Account the exchange of a routing/utility table with `entries`
    /// entries (§V-A.1 overall-cost metric).
    pub fn record_table_exchange(&mut self, entries: usize) {
        self.metrics
            .record_table_exchange(entries, self.cfg.entries_per_packet);
    }

    /// Account one re-queue/retry of a fault-stranded packet (resilience
    /// metric; routers call this when re-dispatching after an outage).
    pub fn record_retry(&mut self) {
        self.metrics.record_retry();
    }

    // ---- transfers -------------------------------------------------------

    /// Move a live packet to `to`'s memory, from wherever it is: the
    /// pending pool of `to`'s landmark, the station `to` is at, or a
    /// co-located node. Counts one forwarding operation.
    pub fn transfer_to_node(&mut self, pkt: PacketId, to: NodeId) -> Result<(), TransferError> {
        self.check_live(pkt)?;
        let loc = self.packets[pkt.index()].loc;
        let to_lm = self.node_loc[to.index()].ok_or(TransferError::NotColocated)?;
        let size = self.cfg.packet_size;
        match loc {
            PacketLoc::PendingAtSource(l) => {
                if l != to_lm {
                    return Err(TransferError::NotColocated);
                }
                if !self.node_store[to.index()].fits(size) {
                    return Err(TransferError::NoSpace);
                }
                self.pending[l.index()].remove(pkt);
            }
            PacketLoc::AtStation(l) => {
                if l != to_lm {
                    return Err(TransferError::NotColocated);
                }
                if !self.station_up[l.index()] {
                    return Err(TransferError::StationDown);
                }
                if !self.node_store[to.index()].fits(size) {
                    return Err(TransferError::NoSpace);
                }
                self.take_radio_budget(l)?;
                self.station_remove(l, pkt);
                self.note_station_activity(l);
            }
            PacketLoc::OnNode(m) => {
                if m == to {
                    return Err(TransferError::SamePlace);
                }
                if self.node_loc[m.index()] != Some(to_lm) {
                    return Err(TransferError::NotColocated);
                }
                if !self.node_store[to.index()].fits(size) {
                    return Err(TransferError::NoSpace);
                }
                self.node_store[m.index()].remove(pkt, size);
            }
            _ => return Err(TransferError::NotLive),
        }
        // Invariant: `fits` was checked above and nothing touched the
        // store since, so the insert cannot be refused.
        assert!(
            self.node_store[to.index()].insert(pkt, size),
            "node store refused an insert that fit"
        );
        let p = &mut self.packets[pkt.index()];
        p.loc = PacketLoc::OnNode(to);
        p.hops += 1;
        self.metrics.record_forward();
        if let Some(from) = place_of(loc) {
            self.emit(|at| SimEvent::PacketForwarded {
                at,
                pkt,
                from,
                to: Place::Node(to),
            });
        }
        Ok(())
    }

    /// Upload a packet to the station at `lm` (from a co-located carrier
    /// or the subarea's pending pool). Delivers it when `lm` is its
    /// destination; otherwise stores it and reports whether a routing loop
    /// closed. Counts one forwarding operation.
    pub fn transfer_to_station(
        &mut self,
        pkt: PacketId,
        lm: LandmarkId,
    ) -> Result<TransferOutcome, TransferError> {
        self.check_live(pkt)?;
        if !self.station_up[lm.index()] {
            return Err(TransferError::StationDown);
        }
        let size = self.cfg.packet_size;
        let loc = self.packets[pkt.index()].loc;
        match loc {
            PacketLoc::OnNode(m) => {
                if self.node_loc[m.index()] != Some(lm) {
                    return Err(TransferError::NotColocated);
                }
                self.take_radio_budget(lm)?;
                self.node_store[m.index()].remove(pkt, size);
            }
            PacketLoc::PendingAtSource(l) => {
                if l != lm {
                    return Err(TransferError::NotColocated);
                }
                self.pending[l.index()].remove(pkt);
            }
            PacketLoc::AtStation(l) if l == lm => return Err(TransferError::SamePlace),
            _ => return Err(TransferError::NotLive),
        }
        self.note_station_activity(lm);
        self.metrics.record_forward();
        let now = self.now;
        let p = &mut self.packets[pkt.index()];
        p.hops += 1;
        // A node-addressed packet (§IV-E.4) is only delivered by its
        // destination *node* claiming it, never by reaching a landmark.
        if p.dst == lm && p.dst_node.is_none() {
            p.loc = PacketLoc::Delivered(now);
            let delay = now.since(p.created);
            let hops = p.hops;
            self.metrics.record_delivery(delay);
            if let Some(from) = place_of(loc) {
                self.emit(|at| SimEvent::PacketDelivered {
                    at,
                    pkt,
                    lm,
                    delay,
                    hops,
                    from,
                });
            }
            return Ok(TransferOutcome {
                delivered: true,
                loop_closed: false,
            });
        }
        let loop_closed = p.record_station_visit(lm);
        p.loc = PacketLoc::AtStation(lm);
        self.station_insert(lm, pkt);
        if let Some(from) = place_of(loc) {
            self.emit(|at| SimEvent::PacketForwarded {
                at,
                pkt,
                from,
                to: Place::Station(lm),
            });
        }
        Ok(TransferOutcome {
            delivered: false,
            loop_closed,
        })
    }

    /// Deliver a station-held packet addressed to mobile node `to`
    /// (§IV-E.4), who must be at that station's landmark.
    pub fn deliver_to_dst_node(&mut self, pkt: PacketId, to: NodeId) -> Result<(), TransferError> {
        self.check_live(pkt)?;
        let p = &self.packets[pkt.index()];
        if p.dst_node != Some(to) {
            return Err(TransferError::NotColocated);
        }
        let PacketLoc::AtStation(l) = p.loc else {
            return Err(TransferError::NotLive);
        };
        if self.node_loc[to.index()] != Some(l) {
            return Err(TransferError::NotColocated);
        }
        if !self.station_up[l.index()] {
            return Err(TransferError::StationDown);
        }
        self.station_remove(l, pkt);
        self.note_station_activity(l);
        let now = self.now;
        let p = &mut self.packets[pkt.index()];
        p.loc = PacketLoc::Delivered(now);
        p.hops += 1;
        let delay = now.since(p.created);
        let hops = p.hops;
        self.metrics.record_delivery(delay);
        self.metrics.record_forward();
        self.emit(|at| SimEvent::PacketDelivered {
            at,
            pkt,
            lm: l,
            delay,
            hops,
            from: Place::Station(l),
        });
        Ok(())
    }

    // ---- engine-side mutations (crate-private) ----------------------------

    /// File `pkt` in the station store at `lm`. Station stores are
    /// unbounded, so this cannot fail.
    fn station_insert(&mut self, lm: LandmarkId, pkt: PacketId) {
        self.station_store[lm.index()].insert(pkt, self.cfg.packet_size, &mut self.station_slot);
    }

    /// Take `pkt` out of the station store at `lm`; its `loc` says it is
    /// there (the store only enumerates, `loc` is the truth).
    fn station_remove(&mut self, lm: LandmarkId, pkt: PacketId) {
        let removed = self.station_store[lm.index()].remove(
            pkt,
            self.cfg.packet_size,
            &mut self.station_slot,
        );
        debug_assert!(
            removed,
            "packet {pkt} at station {lm:?} missing from its store"
        );
    }

    fn check_live(&mut self, pkt: PacketId) -> Result<(), TransferError> {
        let p = &self.packets[pkt.index()];
        if !p.loc.is_live() {
            return Err(TransferError::NotLive);
        }
        if p.is_expired_at(self.now) {
            self.expire_packet(pkt);
            return Err(TransferError::Expired);
        }
        Ok(())
    }

    /// Record a completed recovery if `lm` was waiting for its first
    /// post-outage transfer.
    fn note_station_activity(&mut self, lm: LandmarkId) {
        if let Some(since) = self.awaiting_recovery[lm.index()].take() {
            self.metrics.record_recovery(self.now.since(since));
        }
    }

    /// Destroy a live packet because of an injected fault, removing it
    /// from wherever it sits and counting it under `reason`. Routers call
    /// this when a stranded packet exhausts its retry budget; the engine
    /// calls it for churn and down-station generation losses.
    pub fn drop_lost(&mut self, pkt: PacketId, reason: LossReason) -> Result<(), TransferError> {
        let size = self.cfg.packet_size;
        let loc = self.packets[pkt.index()].loc;
        match loc {
            PacketLoc::OnNode(n) => {
                self.node_store[n.index()].remove(pkt, size);
            }
            PacketLoc::AtStation(l) => {
                self.station_remove(l, pkt);
            }
            PacketLoc::PendingAtSource(l) => {
                self.pending[l.index()].remove(pkt);
            }
            _ => return Err(TransferError::NotLive),
        }
        self.packets[pkt.index()].loc = PacketLoc::Lost;
        let kind = match reason {
            LossReason::Outage => {
                self.metrics.record_lost_to_outage();
                LossKind::Outage
            }
            LossReason::Churn => {
                self.metrics.record_lost_to_churn();
                LossKind::Churn
            }
        };
        let from = place_of(loc);
        self.emit(|at| SimEvent::PacketLost {
            at,
            pkt,
            from,
            kind,
        });
        Ok(())
    }

    pub(crate) fn station_down(&mut self, lm: LandmarkId) {
        self.station_up[lm.index()] = false;
        // An outage starting before the previous one's recovery completed
        // voids that pending measurement.
        self.awaiting_recovery[lm.index()] = None;
        self.emit(|at| SimEvent::StationDown { at, lm });
    }

    pub(crate) fn station_recover(&mut self, lm: LandmarkId) {
        self.station_up[lm.index()] = true;
        self.awaiting_recovery[lm.index()] = Some(self.now);
        self.emit(|at| SimEvent::StationUp { at, lm });
    }

    /// Fail a node: drop it off the network and destroy everything it
    /// carried (counted as churn losses). Returns how many packets died.
    pub(crate) fn node_fail(&mut self, node: NodeId) -> usize {
        self.node_failed[node.index()] = true;
        if let Some(lm) = self.node_loc[node.index()].take() {
            self.present[lm.index()].remove(node);
            // The failure ends any in-progress contact.
            self.emit(|at| SimEvent::ContactClose { at, node, lm });
        }
        let carried: Vec<PacketId> = self.node_store[node.index()].iter().collect();
        for pkt in &carried {
            // A packet in a node's store is live by construction; a stale
            // entry is a bookkeeping bug worth catching in debug, not a
            // reason to abort a release run mid-experiment.
            let dropped = self.drop_lost(*pkt, LossReason::Churn);
            debug_assert!(dropped.is_ok(), "carried packets are live: {dropped:?}");
        }
        let lost_packets = carried.len() as u64;
        self.emit(|at| SimEvent::NodeFailed {
            at,
            node,
            lost_packets,
        });
        carried.len()
    }

    pub(crate) fn node_recover(&mut self, node: NodeId) {
        self.node_failed[node.index()] = false;
        // The node rejoins the network at its next trace arrival; it is
        // not teleported back mid-visit.
        self.emit(|at| SimEvent::NodeRecovered { at, node });
    }

    pub(crate) fn set_visit_recorded(&mut self, recorded: bool) {
        self.visit_recorded = recorded;
    }

    fn take_radio_budget(&mut self, lm: LandmarkId) -> Result<(), TransferError> {
        if let Some(budget) = &mut self.radio_budget {
            let slot = &mut budget[lm.index()];
            if *slot == 0 {
                return Err(TransferError::RadioBusy);
            }
            *slot -= 1;
        }
        Ok(())
    }

    /// Remaining node↔station transfers at `lm` this unit (`None` when
    /// radio is unconstrained).
    pub fn radio_budget_left(&self, lm: LandmarkId) -> Option<u64> {
        self.radio_budget.as_ref().map(|b| b[lm.index()])
    }

    pub(crate) fn set_now(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "time must not go backwards");
        self.now = t;
    }

    pub(crate) fn reset_radio_budget(&mut self) {
        // `radio_budget` is Some exactly when the config sets a budget
        // (see `try_new`), so the per-unit value is always available here.
        if let (Some(budget), Some(per_unit)) =
            (&mut self.radio_budget, self.cfg.radio_budget_per_unit)
        {
            budget.iter_mut().for_each(|b| *b = per_unit);
        }
    }

    pub(crate) fn node_arrive(&mut self, node: NodeId, lm: LandmarkId) {
        debug_assert!(
            self.node_loc[node.index()].is_none(),
            "node already somewhere"
        );
        self.node_loc[node.index()] = Some(lm);
        self.present[lm.index()].insert(node);
        self.emit(|at| SimEvent::ContactOpen { at, node, lm });
    }

    pub(crate) fn node_depart(&mut self, node: NodeId, lm: LandmarkId) {
        debug_assert_eq!(self.node_loc[node.index()], Some(lm));
        self.node_loc[node.index()] = None;
        self.present[lm.index()].remove(node);
        self.emit(|at| SimEvent::ContactClose { at, node, lm });
    }

    /// Create a packet addressed to a mobile node (§IV-E.4): `via` is one
    /// of the destination node's frequently visited landmarks; the packet
    /// waits at `via`'s station until the node shows up. Landmark-addressed
    /// workload packets are created by the engine instead.
    pub fn create_node_packet(
        &mut self,
        src: LandmarkId,
        via: LandmarkId,
        dst_node: NodeId,
        station_mode: bool,
    ) -> PacketId {
        self.create_packet(src, via, Some(dst_node), station_mode)
    }

    /// Create a packet; it starts pending (no-station mode) or directly at
    /// its source station (station mode).
    pub(crate) fn create_packet(
        &mut self,
        src: LandmarkId,
        dst: LandmarkId,
        dst_node: Option<NodeId>,
        station_mode: bool,
    ) -> PacketId {
        assert!(
            src != dst || dst_node.is_some(),
            "packets must cross subareas"
        );
        let id = PacketId::from(self.packets.len());
        let mut p = Packet::new(id, src, dst, self.now, self.cfg.ttl);
        p.dst_node = dst_node;
        if station_mode {
            if !self.station_up[src.index()] {
                // A down station buffers nothing: the packet is generated
                // (it counts against the delivery rate) but immediately
                // lost to the outage.
                p.loc = PacketLoc::Lost;
                self.packets.push(p);
                self.metrics.generated += 1;
                self.metrics.record_lost_to_outage();
                self.emit(|at| SimEvent::PacketGenerated {
                    at,
                    pkt: id,
                    src,
                    dst,
                    start: None,
                });
                self.emit(|at| SimEvent::PacketLost {
                    at,
                    pkt: id,
                    from: None,
                    kind: LossKind::Outage,
                });
                return id;
            }
            p.loc = PacketLoc::AtStation(src);
            p.record_station_visit(src);
        } else {
            self.pending[src.index()].insert(id);
        }
        let start = place_of(p.loc);
        let deadline = p.deadline();
        // The wheel's (deadline, id) drain order equals ascending id only
        // while deadlines are non-decreasing in id: shared ttl + monotone
        // creation times. Guard the invariant the purge order rests on.
        debug_assert!(
            self.packets.last().is_none_or(|q| q.created <= p.created),
            "packet creation times must be non-decreasing"
        );
        self.packets.push(p);
        if station_mode {
            self.station_insert(src, id);
        }
        self.expiry
            .push(deadline.secs(), id.index() as u64, id.index() as u64);
        self.metrics.generated += 1;
        self.emit(|at| SimEvent::PacketGenerated {
            at,
            pkt: id,
            src,
            dst,
            start,
        });
        id
    }

    /// Drop a packet whose TTL elapsed, removing it from wherever it sits.
    pub(crate) fn expire_packet(&mut self, pkt: PacketId) {
        let size = self.cfg.packet_size;
        let loc = self.packets[pkt.index()].loc;
        match loc {
            PacketLoc::OnNode(n) => {
                self.node_store[n.index()].remove(pkt, size);
            }
            PacketLoc::AtStation(l) => {
                self.station_remove(l, pkt);
            }
            PacketLoc::PendingAtSource(l) => {
                self.pending[l.index()].remove(pkt);
            }
            _ => return,
        }
        self.packets[pkt.index()].loc = PacketLoc::Expired;
        self.metrics.record_expiry();
        if let Some(from) = place_of(loc) {
            self.emit(|at| SimEvent::PacketExpired { at, pkt, from });
        }
    }

    /// Drop every live packet whose TTL has elapsed.
    ///
    /// Drains the expiry wheel up to `now` instead of scanning all
    /// packets: the drained entries arrive in `(deadline, id)` order —
    /// equal to the ascending-id order of the scan this replaces, since
    /// deadlines are non-decreasing in id (see `create_packet`) — and
    /// the drain condition `deadline <= now` is exactly
    /// `Packet::is_expired_at`. Entries whose packet already died
    /// (delivered, lost, expired on touch) are skipped, mirroring the
    /// old scan's `is_live` filter.
    pub(crate) fn purge_expired(&mut self) {
        let now = self.now;
        let mut fired = std::mem::take(&mut self.scratch_fired);
        fired.clear();
        self.expiry.drain_up_to(now.secs(), &mut fired);
        for e in &fired {
            let pkt = PacketId::from(e.payload as usize);
            if self.packets[pkt.index()].loc.is_live() {
                self.expire_packet(pkt);
            }
        }
        fired.clear();
        self.scratch_fired = fired;
    }

    /// [`World::purge_expired`]; the `exec` parameter is kept for call
    /// sites but unused. The wheel drain touches only due entries —
    /// already sublinear in the packet population — so the fan-out the
    /// old full scan needed (find in parallel, commit serially) has
    /// nothing left to parallelize.
    pub(crate) fn purge_expired_sharded(&mut self, _exec: &ShardExec) {
        self.purge_expired();
    }

    /// Drain a worker-filled event buffer into the attached sink, or
    /// discard it when tracing is off.
    pub fn flush_event_buffer(&mut self, buf: &mut EventBuffer) {
        match self.trace.as_deref_mut() {
            Some(sink) => buf.drain_into(sink),
            None => buf.clear(),
        }
    }

    /// Drain per-group event buffers into the attached sink in ascending
    /// group order (the sharded commit phase's deterministic flush), or
    /// discard them when tracing is off.
    pub fn flush_shard_buffers(&mut self, bufs: &mut ShardBuffers) {
        match self.trace.as_deref_mut() {
            Some(sink) => bufs.drain_into(sink),
            None => bufs.clear(),
        }
    }

    /// Deliver node-carried packets whose destination is `lm` without a
    /// forwarding operation (no-station routers: arrival at the
    /// destination subarea *is* delivery).
    pub(crate) fn auto_deliver_on_arrival(&mut self, node: NodeId, lm: LandmarkId) {
        let size = self.cfg.packet_size;
        // Reused buffer: arrivals are the hottest event, and a fresh
        // allocation per arrival dwarfs the delivery work itself.
        let mut here = std::mem::take(&mut self.scratch_pkts);
        here.clear();
        here.extend(
            self.node_store[node.index()]
                .iter()
                .filter(|&p| self.packets[p.index()].dst == lm),
        );
        let now = self.now;
        for &pkt in &here {
            // The TTL may have lapsed since the last purge: that packet
            // is a drop, not a delivery.
            if self.packets[pkt.index()].is_expired_at(now) {
                self.expire_packet(pkt);
                continue;
            }
            self.node_store[node.index()].remove(pkt, size);
            let p = &mut self.packets[pkt.index()];
            p.loc = PacketLoc::Delivered(now);
            let delay = now.since(p.created);
            let hops = p.hops;
            self.metrics.record_delivery(delay);
            self.emit(|at| SimEvent::PacketDelivered {
                at,
                pkt,
                lm,
                delay,
                hops,
                from: Place::Node(node),
            });
        }
        self.scratch_pkts = here;
    }

    pub(crate) fn into_outcome(self) -> (RunMetrics, Vec<Packet>) {
        (self.metrics, self.packets)
    }

    /// Checkpoint encoding (DESIGN.md §11): every observable field in
    /// declaration order. Excluded by design: the config and network sizes
    /// (supplied again on restore and fingerprint-checked at the snapshot
    /// level), `scratch_pkts` (always cleared before use), `present`
    /// (derivable from `node_loc`), `station_slot` (derivable from the
    /// station stores, which encode their members ascending whatever
    /// their storage order), and the trace sink (checkpointed
    /// separately so the engine can order the `CheckpointWritten` event
    /// before the recorder bytes are captured).
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        w.put_u64(self.now.secs());
        w.put_usize(self.packets.len());
        for p in &self.packets {
            p.encode(w);
        }
        w.put_usize(self.node_store.len());
        for s in &self.node_store {
            s.encode(w);
        }
        w.put_usize(self.station_store.len());
        for s in &self.station_store {
            s.encode(w);
        }
        w.put_usize(self.pending.len());
        for set in &self.pending {
            set.encode(w);
        }
        w.put_usize(self.node_loc.len());
        for loc in &self.node_loc {
            match loc {
                None => w.put_u8(0),
                Some(lm) => {
                    w.put_u8(1);
                    w.put_u16(lm.0);
                }
            }
        }
        self.metrics.encode(w);
        match &self.radio_budget {
            None => w.put_u8(0),
            Some(budget) => {
                w.put_u8(1);
                w.put_usize(budget.len());
                for &b in budget {
                    w.put_u64(b);
                }
            }
        }
        w.put_usize(self.station_up.len());
        for &up in &self.station_up {
            w.put_bool(up);
        }
        w.put_usize(self.node_failed.len());
        for &f in &self.node_failed {
            w.put_bool(f);
        }
        w.put_usize(self.awaiting_recovery.len());
        for slot in &self.awaiting_recovery {
            match slot {
                None => w.put_u8(0),
                Some(t) => {
                    w.put_u8(1);
                    w.put_u64(t.secs());
                }
            }
        }
        w.put_bool(self.visit_recorded);
        self.expiry.encode(w);
        w.put_usize(self.pending_timers.len());
        for &(at, token) in &self.pending_timers {
            w.put_u64(at.secs());
            w.put_u64(token);
        }
    }

    /// Inverse of [`World::encode_state`]. The config and network sizes
    /// come from the caller (re-derived from the run inputs); per-node and
    /// per-landmark vector lengths must match them. `present` is rebuilt
    /// from `node_loc` by an ascending node scan, which reproduces the
    /// exact `DenseSet` contents incremental arrivals would have built;
    /// `station_slot` is rebuilt from the station stores. Store members
    /// are checked against the packets' `loc` before either is trusted.
    pub(crate) fn decode_state(
        r: &mut Reader<'_>,
        cfg: SimConfig,
        num_nodes: usize,
        num_landmarks: usize,
    ) -> Result<World, SnapshotError> {
        const CTX: &str = "World";
        let now = SimTime(r.u64(CTX)?);
        let np = r.seq_len("World.packets")?;
        let mut packets = Vec::with_capacity(np);
        for i in 0..np {
            let p = Packet::decode(r)?;
            if p.id.index() != i {
                return Err(SnapshotError::Corrupt { context: CTX });
            }
            packets.push(p);
        }
        let expect_len = |n: usize, want: usize| {
            if n == want {
                Ok(())
            } else {
                Err(SnapshotError::Corrupt { context: CTX })
            }
        };
        let n = r.seq_len("World.node_store")?;
        expect_len(n, num_nodes)?;
        let mut node_store = Vec::with_capacity(n);
        for _ in 0..n {
            node_store.push(PacketStore::decode(r)?);
        }
        let n = r.seq_len("World.station_store")?;
        expect_len(n, num_landmarks)?;
        let mut station_store = Vec::with_capacity(n);
        for _ in 0..n {
            station_store.push(StationStore::decode(r)?);
        }
        // Every store member must be a known packet whose `loc` names
        // exactly that store, and every store's byte count must match its
        // size. `loc` is single-valued, so this also rejects a packet
        // listed in two stores. Ids are checked before they index
        // anything: a crafted id must not size the slot index below.
        let size = cfg.packet_size;
        let nodes_ok = node_store.iter().enumerate().all(|(n, s)| {
            let here = PacketLoc::OnNode(NodeId::from(n));
            store_is_consistent(&packets, s.iter(), s.used_bytes(), size, here)
        });
        let stations_ok = station_store.iter().enumerate().all(|(l, s)| {
            let here = PacketLoc::AtStation(LandmarkId::from(l));
            let members = s.members().iter().copied();
            store_is_consistent(&packets, members, s.used_bytes(), size, here)
        });
        if !(nodes_ok && stations_ok) {
            return Err(SnapshotError::Corrupt { context: CTX });
        }
        let mut station_slot = SlotIndex::new();
        for s in &station_store {
            s.index_slots(&mut station_slot);
        }
        let n = r.seq_len("World.pending")?;
        expect_len(n, num_landmarks)?;
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            pending.push(DenseSet::decode(r)?);
        }
        let n = r.seq_len("World.node_loc")?;
        expect_len(n, num_nodes)?;
        let mut node_loc = Vec::with_capacity(n);
        for _ in 0..n {
            node_loc.push(match r.u8(CTX)? {
                0 => None,
                1 => {
                    let lm = LandmarkId(r.u16(CTX)?);
                    if lm.index() >= num_landmarks {
                        return Err(SnapshotError::Corrupt { context: CTX });
                    }
                    Some(lm)
                }
                t => {
                    return Err(SnapshotError::InvalidTag {
                        context: "World.node_loc",
                        tag: t as u64,
                    })
                }
            });
        }
        let metrics = RunMetrics::decode(r)?;
        let radio_budget = match r.u8(CTX)? {
            0 => None,
            1 => {
                let n = r.seq_len("World.radio_budget")?;
                expect_len(n, num_landmarks)?;
                let mut budget = Vec::with_capacity(n);
                for _ in 0..n {
                    budget.push(r.u64(CTX)?);
                }
                Some(budget)
            }
            t => {
                return Err(SnapshotError::InvalidTag {
                    context: "World.radio_budget",
                    tag: t as u64,
                })
            }
        };
        if radio_budget.is_some() != cfg.radio_budget_per_unit.is_some() {
            return Err(SnapshotError::Corrupt { context: CTX });
        }
        let n = r.seq_len("World.station_up")?;
        expect_len(n, num_landmarks)?;
        let mut station_up = Vec::with_capacity(n);
        for _ in 0..n {
            station_up.push(r.bool(CTX)?);
        }
        let n = r.seq_len("World.node_failed")?;
        expect_len(n, num_nodes)?;
        let mut node_failed = Vec::with_capacity(n);
        for _ in 0..n {
            node_failed.push(r.bool(CTX)?);
        }
        let n = r.seq_len("World.awaiting_recovery")?;
        expect_len(n, num_landmarks)?;
        let mut awaiting_recovery = Vec::with_capacity(n);
        for _ in 0..n {
            awaiting_recovery.push(match r.u8(CTX)? {
                0 => None,
                1 => Some(SimTime(r.u64(CTX)?)),
                t => {
                    return Err(SnapshotError::InvalidTag {
                        context: "World.awaiting_recovery",
                        tag: t as u64,
                    })
                }
            });
        }
        let visit_recorded = r.bool(CTX)?;
        let expiry = TimingWheel::decode(r)?;
        if expiry
            .peek_min()
            .is_some_and(|e| e.payload as usize >= packets.len())
        {
            // Wheel payloads are packet ids; the minimum check catches
            // gross mismatches cheaply (full validation would rescan).
            return Err(SnapshotError::Corrupt { context: CTX });
        }
        let n = r.seq_len("World.pending_timers")?;
        let mut pending_timers = Vec::with_capacity(n);
        for _ in 0..n {
            pending_timers.push((SimTime(r.u64(CTX)?), r.u64(CTX)?));
        }
        let mut present = vec![DenseSet::new(); num_landmarks];
        for (i, loc) in node_loc.iter().enumerate() {
            if let Some(lm) = loc {
                present[lm.index()].insert(NodeId::from(i));
            }
        }
        Ok(World {
            cfg,
            now,
            num_nodes,
            num_landmarks,
            packets,
            node_store,
            station_store,
            station_slot,
            pending,
            scratch_pkts: Vec::new(),
            node_loc,
            present,
            metrics,
            radio_budget,
            station_up,
            node_failed,
            awaiting_recovery,
            visit_recorded,
            expiry,
            scratch_fired: Vec::new(),
            pending_timers,
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::time::DAY;

    fn world() -> World {
        let cfg = SimConfig {
            node_memory: 2_048, // two packets
            ..SimConfig::default()
        };
        World::new(cfg, 3, 3)
    }

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn pending_pickup_and_delivery_cycle() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        let p = w.create_packet(lm(0), lm(1), None, false);
        assert!(w.pending_at(lm(0)).any(|x| x == p));
        w.transfer_to_node(p, n(0)).unwrap();
        assert_eq!(w.packet(p).loc, PacketLoc::OnNode(n(0)));
        assert_eq!(w.metrics().forwarding_ops, 1);
        // Carrier moves to the destination: auto-delivery, no extra op.
        w.node_depart(n(0), lm(0));
        w.set_now(SimTime(100));
        w.node_arrive(n(0), lm(1));
        w.auto_deliver_on_arrival(n(0), lm(1));
        assert!(matches!(w.packet(p).loc, PacketLoc::Delivered(_)));
        assert_eq!(w.metrics().delivered, 1);
        assert_eq!(w.metrics().forwarding_ops, 1);
        assert_eq!(w.metrics().delays, vec![100]);
    }

    #[test]
    fn station_mode_generation_and_upload_delivery() {
        let mut w = world();
        let p = w.create_packet(lm(0), lm(2), None, true);
        assert_eq!(w.packet(p).loc, PacketLoc::AtStation(lm(0)));
        w.node_arrive(n(1), lm(0));
        w.transfer_to_node(p, n(1)).unwrap();
        w.node_depart(n(1), lm(0));
        w.set_now(SimTime(50));
        w.node_arrive(n(1), lm(2));
        let out = w.transfer_to_station(p, lm(2)).unwrap();
        assert!(out.delivered);
        assert_eq!(w.metrics().delivered, 1);
        assert_eq!(w.metrics().forwarding_ops, 2);
    }

    #[test]
    fn memory_limit_enforced() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        let a = w.create_packet(lm(0), lm(1), None, false);
        let b = w.create_packet(lm(0), lm(1), None, false);
        let c = w.create_packet(lm(0), lm(1), None, false);
        w.transfer_to_node(a, n(0)).unwrap();
        w.transfer_to_node(b, n(0)).unwrap();
        assert_eq!(w.transfer_to_node(c, n(0)), Err(TransferError::NoSpace));
        assert!(!w.node_has_space(n(0)));
        assert_eq!(w.node_packet_count(n(0)), 2);
    }

    #[test]
    fn colocation_required() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        w.node_arrive(n(1), lm(1));
        let p = w.create_packet(lm(0), lm(2), None, false);
        // Node 1 is elsewhere.
        assert_eq!(
            w.transfer_to_node(p, n(1)),
            Err(TransferError::NotColocated)
        );
        w.transfer_to_node(p, n(0)).unwrap();
        // Node-to-node requires same landmark.
        assert_eq!(
            w.transfer_to_node(p, n(1)),
            Err(TransferError::NotColocated)
        );
        // Station upload at the wrong landmark also fails.
        assert_eq!(
            w.transfer_to_station(p, lm(1)),
            Err(TransferError::NotColocated)
        );
    }

    #[test]
    fn node_to_node_transfer() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        w.node_arrive(n(1), lm(0));
        let p = w.create_packet(lm(0), lm(2), None, false);
        w.transfer_to_node(p, n(0)).unwrap();
        w.transfer_to_node(p, n(1)).unwrap();
        assert_eq!(w.packet(p).loc, PacketLoc::OnNode(n(1)));
        assert_eq!(w.node_packet_count(n(0)), 0);
        assert_eq!(w.metrics().forwarding_ops, 2);
        assert_eq!(w.transfer_to_node(p, n(1)), Err(TransferError::SamePlace));
    }

    #[test]
    fn expiry_on_touch_and_purge() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        let p = w.create_packet(lm(0), lm(1), None, false);
        w.set_now(SimTime::ZERO + DAY.mul(21)); // past the 20-day TTL
        assert_eq!(w.transfer_to_node(p, n(0)), Err(TransferError::Expired));
        assert_eq!(w.packet(p).loc, PacketLoc::Expired);
        assert_eq!(w.metrics().expired, 1);
        // Purge path.
        let q = w.create_packet(lm(0), lm(1), None, false);
        w.set_now(SimTime::ZERO + DAY.mul(42));
        w.purge_expired();
        assert_eq!(w.packet(q).loc, PacketLoc::Expired);
    }

    #[test]
    fn loop_detection_via_station_revisit() {
        let mut w = world();
        let p = w.create_packet(lm(0), lm(2), None, true);
        w.node_arrive(n(0), lm(0));
        w.transfer_to_node(p, n(0)).unwrap();
        w.node_depart(n(0), lm(0));
        w.node_arrive(n(0), lm(1));
        let o1 = w.transfer_to_station(p, lm(1)).unwrap();
        assert!(!o1.loop_closed);
        w.transfer_to_node(p, n(0)).unwrap();
        w.node_depart(n(0), lm(1));
        w.node_arrive(n(0), lm(0));
        let o2 = w.transfer_to_station(p, lm(0)).unwrap();
        assert!(o2.loop_closed, "revisiting the source closes a loop");
    }

    #[test]
    fn dst_node_delivery() {
        let mut w = world();
        let p = w.create_packet(lm(0), lm(1), Some(n(2)), true);
        // Wrong node cannot claim it.
        w.node_arrive(n(0), lm(0));
        assert_eq!(
            w.deliver_to_dst_node(p, n(0)),
            Err(TransferError::NotColocated)
        );
        w.node_arrive(n(2), lm(0));
        w.deliver_to_dst_node(p, n(2)).unwrap();
        assert!(matches!(w.packet(p).loc, PacketLoc::Delivered(_)));
    }

    #[test]
    fn radio_budget_limits_station_transfers() {
        let cfg = SimConfig {
            radio_budget_per_unit: Some(1),
            ..SimConfig::default()
        };
        let mut w = World::new(cfg, 2, 2);
        w.node_arrive(n(0), lm(0));
        let a = w.create_packet(lm(0), lm(1), None, true);
        let b = w.create_packet(lm(0), lm(1), None, true);
        w.transfer_to_node(a, n(0)).unwrap();
        assert_eq!(w.transfer_to_node(b, n(0)), Err(TransferError::RadioBusy));
        assert_eq!(w.radio_budget_left(lm(0)), Some(0));
        w.reset_radio_budget();
        w.transfer_to_node(b, n(0)).unwrap();
    }

    #[test]
    fn table_exchange_accounting() {
        let mut w = world();
        w.record_table_exchange(100);
        assert!((w.metrics().maintenance_ops - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must cross subareas")]
    fn rejects_same_src_dst_packet() {
        let mut w = world();
        w.create_packet(lm(0), lm(0), None, false);
    }

    // ---- snapshot corruption: store membership ---------------------------

    fn encode(w: &World) -> Vec<u8> {
        let mut wr = Writer::new();
        w.encode_state(&mut wr);
        wr.into_bytes()
    }

    fn decode(w: &World, bytes: &[u8]) -> Result<World, SnapshotError> {
        World::decode_state(
            &mut Reader::new(bytes),
            w.cfg.clone(),
            w.num_nodes,
            w.num_landmarks,
        )
    }

    /// Three packets at station 0 (one handed on to node 0), one at
    /// station 1.
    fn stocked_world() -> (World, [PacketId; 4]) {
        let mut w = world();
        let a = w.create_packet(lm(0), lm(2), None, true);
        let b = w.create_packet(lm(0), lm(2), None, true);
        let c = w.create_packet(lm(0), lm(1), None, true);
        let d = w.create_packet(lm(1), lm(2), None, true);
        w.node_arrive(n(0), lm(0));
        w.transfer_to_node(b, n(0)).unwrap();
        (w, [a, b, c, d])
    }

    /// A station store holding exactly `ids`, as a snapshot would carry it
    /// (built through the codec, so no slot index is sized by the ids).
    fn crafted_station(ids: &[u64], size: u64) -> StationStore {
        let mut wr = Writer::new();
        wr.put_u8(0);
        wr.put_u64(ids.len() as u64 * size);
        wr.put_usize(ids.len());
        for &id in ids {
            wr.put_u64(id);
        }
        StationStore::decode(&mut Reader::new(&wr.into_bytes())).unwrap()
    }

    fn assert_corrupt(res: Result<World, SnapshotError>, what: &str) {
        match res {
            Err(SnapshotError::Corrupt { context: "World" }) => {}
            Err(e) => panic!("{what}: expected World corruption, got {e:?}"),
            Ok(_) => panic!("{what}: corrupt snapshot was accepted"),
        }
    }

    #[test]
    fn stocked_world_roundtrips_byte_identically() {
        let (w, [a, _, c, _]) = stocked_world();
        let bytes = encode(&w);
        let mut back = decode(&w, &bytes).unwrap();
        assert_eq!(encode(&back), bytes);
        // The rebuilt slot index serves removals.
        back.node_arrive(n(1), lm(0));
        back.transfer_to_node(c, n(1)).unwrap();
        let mut here = Vec::new();
        back.station_packets(lm(0), &mut here);
        assert_eq!(here, vec![a]);
        assert_eq!(back.station_used_bytes(lm(0)), back.cfg.packet_size);
    }

    #[test]
    fn decode_rejects_store_member_beyond_packet_count() {
        let (mut w, _) = stocked_world();
        let size = w.cfg.packet_size;
        // An id far past the packet table must be refused before it sizes
        // the slot index. (Not `u32::MAX`: should the check ever regress,
        // this test would then allocate 16 GiB of slot pages.)
        w.station_store[1] = crafted_station(&[3, 5_000_000], size);
        assert_corrupt(decode(&w, &encode(&w)), "station member id out of range");

        let (mut w, _) = stocked_world();
        w.node_store[2].insert(PacketId(4), size);
        assert_corrupt(decode(&w, &encode(&w)), "node member id out of range");
    }

    #[test]
    fn decode_rejects_store_member_with_foreign_loc() {
        let (mut w, [a, b, _, _]) = stocked_world();
        w.packets[a.index()].loc = PacketLoc::Expired;
        assert_corrupt(decode(&w, &encode(&w)), "station member not AtStation");

        let (mut w, [a, _, _, _]) = stocked_world();
        w.packets[a.index()].loc = PacketLoc::AtStation(lm(1));
        assert_corrupt(decode(&w, &encode(&w)), "station member at another station");

        let (mut w, _) = stocked_world();
        w.packets[b.index()].loc = PacketLoc::OnNode(n(1));
        assert_corrupt(decode(&w, &encode(&w)), "node member on another node");
    }

    #[test]
    fn decode_rejects_packet_listed_in_two_stores() {
        let (mut w, [a, _, _, d]) = stocked_world();
        let size = w.cfg.packet_size;
        // `a` sits at station 0 and is also listed at station 1.
        w.station_store[1] = crafted_station(&[a.index() as u64, d.index() as u64], size);
        assert_corrupt(decode(&w, &encode(&w)), "station + station");

        let (mut w, [a, _, _, _]) = stocked_world();
        w.node_store[1].insert(a, size);
        assert_corrupt(decode(&w, &encode(&w)), "station + node");
    }

    #[test]
    fn decode_rejects_store_byte_count_mismatch() {
        let (mut w, [_, _, _, d]) = stocked_world();
        let mut wr = Writer::new();
        wr.put_u8(0);
        wr.put_u64(1);
        wr.put_usize(1);
        wr.put_u64(d.index() as u64);
        w.station_store[1] = StationStore::decode(&mut Reader::new(&wr.into_bytes())).unwrap();
        assert_corrupt(decode(&w, &encode(&w)), "station byte count");
    }
}
