//! The packet record and its lifecycle.
//!
//! Packets in the paper are fixed-size (1 kB by default), carry a
//! time-to-live, and are destined to a *landmark* (§III-A.2). The optional
//! [`Packet::dst_node`] field supports the §IV-E.4 extension that routes
//! packets to mobile nodes via their frequently-visited landmarks.

use crate::ids::{LandmarkId, NodeId, PacketId};
use crate::time::{SimDuration, SimTime};
use dtnflow_snapshot::{Reader, SnapshotError, Writer};

/// Where a packet currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketLoc {
    /// Generated in a subarea but not yet picked up by any carrier
    /// (baseline routers without landmark stations start here).
    PendingAtSource(LandmarkId),
    /// Stored in a mobile node's memory.
    OnNode(NodeId),
    /// Stored at a landmark's central station (DTN-FLOW only).
    AtStation(LandmarkId),
    /// Successfully delivered at this time.
    Delivered(SimTime),
    /// Dropped because its TTL elapsed before delivery.
    Expired,
    /// Destroyed by an injected fault: generated at a station that was
    /// down, carried by a node that failed, or dropped after exhausting
    /// its retry budget at a failed station.
    Lost,
}

impl PacketLoc {
    /// Whether the packet is still live (not delivered, expired, or lost).
    #[inline]
    pub fn is_live(self) -> bool {
        !matches!(
            self,
            PacketLoc::Delivered(_) | PacketLoc::Expired | PacketLoc::Lost
        )
    }
}

/// How many station visits a [`StationPath`] holds before it allocates.
/// Seven covers 97% of packets at 500 packets/landmark/day on the campus
/// trace, and an inline array of seven `u16` ids plus a length byte fits
/// in the 24 bytes the heap form (a `Vec`) needs anyway.
const INLINE_VISITS: usize = 7;

/// The landmarks whose station has held a packet, in visit order
/// (DESIGN.md §17).
///
/// Every station upload appends one landmark, so the path is on the
/// per-packet hot path. Up to [`INLINE_VISITS`] ids live inline in the
/// packet record; the path moves to the heap only on the eighth visit.
/// It reads as a `[LandmarkId]` slice (`Deref`), and equality, `Debug`
/// and the checkpoint encoding see only that slice, never which form
/// holds it.
#[derive(Clone)]
pub struct StationPath(PathRepr);

#[derive(Clone)]
enum PathRepr {
    /// The first `len` ids of the array are the path.
    Inline(u8, [LandmarkId; INLINE_VISITS]),
    Heap(Vec<LandmarkId>),
}

impl StationPath {
    /// An empty path (no allocation).
    pub const fn new() -> Self {
        StationPath(PathRepr::Inline(0, [LandmarkId(0); INLINE_VISITS]))
    }

    /// Append a visit.
    pub fn push(&mut self, lm: LandmarkId) {
        match &mut self.0 {
            PathRepr::Inline(len, ids) if (*len as usize) < INLINE_VISITS => {
                ids[*len as usize] = lm;
                *len += 1;
            }
            PathRepr::Inline(_, ids) => {
                let mut heap = Vec::with_capacity(2 * INLINE_VISITS);
                heap.extend_from_slice(ids);
                heap.push(lm);
                self.0 = PathRepr::Heap(heap);
            }
            PathRepr::Heap(v) => v.push(lm),
        }
    }

    /// The visits as a slice, oldest first.
    #[inline]
    pub fn as_slice(&self) -> &[LandmarkId] {
        match &self.0 {
            PathRepr::Inline(len, ids) => &ids[..*len as usize],
            PathRepr::Heap(v) => v,
        }
    }
}

impl Default for StationPath {
    fn default() -> Self {
        StationPath::new()
    }
}

impl From<Vec<LandmarkId>> for StationPath {
    /// Adopt `path` as is: it stays on the heap, whatever its length.
    fn from(path: Vec<LandmarkId>) -> Self {
        StationPath(PathRepr::Heap(path))
    }
}

impl std::ops::Deref for StationPath {
    type Target = [LandmarkId];

    #[inline]
    fn deref(&self) -> &[LandmarkId] {
        self.as_slice()
    }
}

impl PartialEq for StationPath {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for StationPath {}

impl std::fmt::Debug for StationPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<'a> IntoIterator for &'a StationPath {
    type Item = &'a LandmarkId;
    type IntoIter = std::slice::Iter<'a, LandmarkId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A single-copy data packet travelling from one subarea to another.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Dense identifier.
    pub id: PacketId,
    /// Landmark of the subarea where the packet was generated.
    pub src: LandmarkId,
    /// Destination landmark (subarea).
    pub dst: LandmarkId,
    /// Optional destination mobile node (§IV-E.4 extension). When set, the
    /// packet is delivered when this node reaches a station holding it.
    pub dst_node: Option<NodeId>,
    /// Generation instant.
    pub created: SimTime,
    /// Time-to-live from `created`.
    pub ttl: SimDuration,
    /// Current location / lifecycle state.
    pub loc: PacketLoc,
    /// Landmarks whose station has held this packet, in order. Used by the
    /// routing-loop detection extension (§IV-E.2) and for path diagnostics.
    pub visited: StationPath,
    /// Number of forwarding operations this packet has undergone.
    pub hops: u32,
}

// The inline path keeps the packet record at its `Vec`-path size.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Packet>() == 80);

impl Packet {
    /// Create a fresh packet pending at its source subarea.
    pub fn new(
        id: PacketId,
        src: LandmarkId,
        dst: LandmarkId,
        created: SimTime,
        ttl: SimDuration,
    ) -> Self {
        Packet {
            id,
            src,
            dst,
            dst_node: None,
            created,
            ttl,
            loc: PacketLoc::PendingAtSource(src),
            visited: StationPath::new(),
            hops: 0,
        }
    }

    /// The absolute instant at which this packet expires.
    #[inline]
    pub fn deadline(&self) -> SimTime {
        self.created + self.ttl
    }

    /// Whether the packet's TTL has elapsed at `now`.
    #[inline]
    pub fn is_expired_at(&self, now: SimTime) -> bool {
        now >= self.deadline()
    }

    /// Remaining lifetime at `now` (zero once expired).
    #[inline]
    pub fn remaining_ttl(&self, now: SimTime) -> SimDuration {
        self.deadline().since(now)
    }

    /// End-to-end delay, if delivered.
    #[inline]
    pub fn delay(&self) -> Option<SimDuration> {
        match self.loc {
            PacketLoc::Delivered(t) => Some(t.since(self.created)),
            _ => None,
        }
    }

    /// Record a station visit and report whether the station was already on
    /// the path — i.e. whether a routing loop has been traversed (§IV-E.2).
    pub fn record_station_visit(&mut self, lm: LandmarkId) -> bool {
        let looped = self.visited.contains(&lm);
        self.visited.push(lm);
        looped
    }

    /// The landmarks of the loop the packet just closed at `lm`: everything
    /// from the first visit of `lm` onward. Empty if no loop.
    pub fn loop_members(&self, lm: LandmarkId) -> &[LandmarkId] {
        match self.visited.iter().position(|&v| v == lm) {
            Some(first) if self.visited[first + 1..].contains(&lm) => {
                let last = self
                    .visited
                    .iter()
                    .rposition(|&v| v == lm)
                    // detlint: allow(P1, reason = "guarded by the contains() check in this match arm; a second occurrence is proven present")
                    .expect("second occurrence exists");
                &self.visited[first..=last]
            }
            _ => &[],
        }
    }

    /// Checkpoint encoding (DESIGN.md §11): every field in declaration
    /// order; byte-deterministic.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.id.0);
        w.put_u16(self.src.0);
        w.put_u16(self.dst.0);
        match self.dst_node {
            None => w.put_u8(0),
            Some(n) => {
                w.put_u8(1);
                w.put_u32(n.0);
            }
        }
        w.put_u64(self.created.secs());
        w.put_u64(self.ttl.secs());
        match self.loc {
            PacketLoc::PendingAtSource(lm) => {
                w.put_u8(0);
                w.put_u16(lm.0);
            }
            PacketLoc::OnNode(n) => {
                w.put_u8(1);
                w.put_u32(n.0);
            }
            PacketLoc::AtStation(lm) => {
                w.put_u8(2);
                w.put_u16(lm.0);
            }
            PacketLoc::Delivered(t) => {
                w.put_u8(3);
                w.put_u64(t.secs());
            }
            PacketLoc::Expired => w.put_u8(4),
            PacketLoc::Lost => w.put_u8(5),
        }
        w.put_usize(self.visited.len());
        for lm in &self.visited {
            w.put_u16(lm.0);
        }
        w.put_u32(self.hops);
    }

    /// Inverse of [`Packet::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Packet, SnapshotError> {
        const CTX: &str = "Packet";
        let id = PacketId(r.u32(CTX)?);
        let src = LandmarkId(r.u16(CTX)?);
        let dst = LandmarkId(r.u16(CTX)?);
        let dst_node = match r.u8(CTX)? {
            0 => None,
            1 => Some(NodeId(r.u32(CTX)?)),
            t => {
                return Err(SnapshotError::InvalidTag {
                    context: "Packet.dst_node",
                    tag: t as u64,
                })
            }
        };
        let created = SimTime(r.u64(CTX)?);
        let ttl = SimDuration(r.u64(CTX)?);
        let loc = match r.u8(CTX)? {
            0 => PacketLoc::PendingAtSource(LandmarkId(r.u16(CTX)?)),
            1 => PacketLoc::OnNode(NodeId(r.u32(CTX)?)),
            2 => PacketLoc::AtStation(LandmarkId(r.u16(CTX)?)),
            3 => PacketLoc::Delivered(SimTime(r.u64(CTX)?)),
            4 => PacketLoc::Expired,
            5 => PacketLoc::Lost,
            t => {
                return Err(SnapshotError::InvalidTag {
                    context: "PacketLoc",
                    tag: t as u64,
                })
            }
        };
        let n = r.seq_len("Packet.visited")?;
        let mut visited = StationPath::new();
        for _ in 0..n {
            visited.push(LandmarkId(r.u16(CTX)?));
        }
        let hops = r.u32(CTX)?;
        Ok(Packet {
            id,
            src,
            dst,
            dst_node,
            created,
            ttl,
            loc,
            visited,
            hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{DAY, HOUR};
    use dtnflow_snapshot::{Reader, Writer};

    fn pkt() -> Packet {
        Packet::new(PacketId(0), LandmarkId(1), LandmarkId(2), SimTime(100), DAY)
    }

    #[test]
    fn lifecycle_flags() {
        let mut p = pkt();
        assert!(p.loc.is_live());
        p.loc = PacketLoc::Delivered(SimTime(200));
        assert!(!p.loc.is_live());
        assert_eq!(p.delay(), Some(SimDuration(100)));
        p.loc = PacketLoc::Expired;
        assert!(!p.loc.is_live());
        assert_eq!(p.delay(), None);
    }

    #[test]
    fn ttl_accounting() {
        let p = pkt();
        assert_eq!(p.deadline(), SimTime(100 + 86_400));
        assert!(!p.is_expired_at(SimTime(100)));
        assert!(p.is_expired_at(p.deadline()));
        assert_eq!(p.remaining_ttl(SimTime(100) + HOUR), SimDuration(82_800));
        assert_eq!(p.remaining_ttl(SimTime::MAX), SimDuration::ZERO);
    }

    /// A packet whose path has `n` visits (the last one closing a loop
    /// back to landmark 1), with every optional field populated.
    fn pinned(n: u16) -> Packet {
        let mut p = Packet::new(
            PacketId(0x0102_0304),
            LandmarkId(7),
            LandmarkId(0x0a0b),
            SimTime(100),
            DAY,
        );
        p.dst_node = Some(NodeId(5));
        for i in 0..n {
            p.record_station_visit(LandmarkId(if i == n - 1 { 1 } else { i * 3 + 1 }));
        }
        p.loc = PacketLoc::AtStation(LandmarkId(1));
        p.hops = n as u32 + 2;
        p
    }

    /// The checkpoint bytes of an inline (3-visit) and a heap (9-visit)
    /// path, recorded when `visited` was a `Vec`: the path layout must
    /// not reach the snapshot format.
    #[test]
    fn encoding_is_pinned_for_inline_and_heap_paths() {
        const HEAD: [u8; 32] = [
            4, 3, 2, 1, 7, 0, 11, 10, 1, 5, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 128, 81, 1, 0, 0, 0,
            0, 0, 2, 1, 0,
        ];
        let cases: [(u16, &[u8]); 2] = [
            (3, &[3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 1, 0, 5, 0, 0, 0]),
            (
                9,
                &[
                    9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 7, 0, 10, 0, 13, 0, 16, 0, 19, 0, 22, 0, 1,
                    0, 11, 0, 0, 0,
                ],
            ),
        ];
        for (n, tail) in cases {
            let p = pinned(n);
            let mut w = Writer::new();
            p.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(&bytes[..HEAD.len()], &HEAD[..], "{n}-visit header");
            assert_eq!(&bytes[HEAD.len()..], tail, "{n}-visit path and hops");
            let back = Packet::decode(&mut Reader::new(&bytes)).expect("pinned bytes decode");
            assert_eq!(back.visited, p.visited);
            assert_eq!(back.hops, p.hops);
        }
    }

    #[test]
    fn loop_detection_on_revisit() {
        let mut p = pkt();
        assert!(!p.record_station_visit(LandmarkId(1)));
        assert!(!p.record_station_visit(LandmarkId(3)));
        assert!(!p.record_station_visit(LandmarkId(4)));
        assert!(p.record_station_visit(LandmarkId(3)));
        assert_eq!(
            p.loop_members(LandmarkId(3)),
            &[LandmarkId(3), LandmarkId(4), LandmarkId(3)]
        );
        // A landmark never visited twice yields no loop.
        assert!(p.loop_members(LandmarkId(1)).is_empty());
        assert!(p.loop_members(LandmarkId(9)).is_empty());
    }
}
