//! Byte-accounted packet storage for nodes and stations.
//!
//! Nodes have limited memory (`M` in the paper); landmark stations are
//! "additional infrastructure with high processing and storage capacity"
//! (§I) and are modelled as unbounded. The two stores differ in shape
//! because they are used differently (DESIGN.md §16):
//!
//! * [`PacketStore`] (nodes) is small and bounded, and every arrival
//!   walks it in ascending id order, so it keeps its members sorted.
//! * [`StationStore`] (stations) is deep — thousands of packets at the
//!   benchmark's rates — and takes an upload or a hand-off on nearly
//!   every contact, so it keeps its members unordered with an O(1)
//!   per-packet slot index and sorts only when a caller enumerates it.

use dtnflow_core::dense::DenseSet;
use dtnflow_core::ids::PacketId;
use dtnflow_snapshot::{Reader, SnapshotError, Writer};

/// A node's memory: a sorted set of packets with byte accounting and a
/// capacity.
#[derive(Debug, Clone)]
pub struct PacketStore {
    capacity: u64,
    used: u64,
    packets: DenseSet<PacketId>,
}

impl PacketStore {
    /// An empty store holding at most `capacity` bytes.
    pub fn bounded(capacity: u64) -> Self {
        PacketStore {
            capacity,
            used: 0,
            packets: DenseSet::new(),
        }
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// Whether `size` more bytes fit.
    pub fn fits(&self, size: u64) -> bool {
        self.free_bytes() >= size
    }

    /// Number of packets stored.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Whether a packet is present.
    pub fn contains(&self, pkt: PacketId) -> bool {
        self.packets.contains(pkt)
    }

    /// Insert a packet of `size` bytes. Fails (returns `false`) when the
    /// packet would not fit; inserting a packet twice is a logic error.
    pub fn insert(&mut self, pkt: PacketId, size: u64) -> bool {
        if !self.fits(size) {
            return false;
        }
        let inserted = self.packets.insert(pkt);
        assert!(inserted, "packet {pkt} inserted twice");
        self.used += size;
        true
    }

    /// Remove a packet of `size` bytes; `false` when absent.
    pub fn remove(&mut self, pkt: PacketId, size: u64) -> bool {
        if self.packets.remove(pkt) {
            debug_assert!(self.used >= size, "byte accounting underflow");
            self.used -= size;
            true
        } else {
            false
        }
    }

    /// Iterate packets in ascending id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.packets.iter()
    }

    /// Checkpoint encoding (DESIGN.md §11): capacity tag `1`, capacity,
    /// byte count and the member set. The tag byte is the format's
    /// bounded/unbounded marker; [`StationStore`] writes tag `0`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(1);
        w.put_u64(self.capacity);
        w.put_u64(self.used);
        self.packets.encode(w);
    }

    /// Inverse of [`PacketStore::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<PacketStore, SnapshotError> {
        const CTX: &str = "PacketStore";
        let capacity = match r.u8(CTX)? {
            1 => r.u64(CTX)?,
            t => {
                return Err(SnapshotError::InvalidTag {
                    context: "PacketStore.capacity",
                    tag: t as u64,
                })
            }
        };
        let used = r.u64(CTX)?;
        if used > capacity {
            return Err(SnapshotError::Corrupt { context: CTX });
        }
        let packets = DenseSet::decode(r)?;
        Ok(PacketStore {
            capacity,
            used,
            packets,
        })
    }
}

/// Entries per [`SlotIndex`] page.
const SLOT_PAGE: usize = 4_096;

/// Slot value of a packet that sits in no station store.
const NO_SLOT: u32 = u32::MAX;

/// Which position of its station's store each packet occupies, shared by
/// every station (a packet is in at most one store at a time).
///
/// Paged: 4 bytes per packet in fixed 16 KiB pages added as packet ids
/// grow. A flat `Vec` would copy itself on every doubling and leave the
/// old buffer behind as a heap hole, which showed up in peak RSS; pages
/// are never moved or freed during a run.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    pages: Vec<Box<[u32]>>,
}

impl SlotIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot recorded for `pkt`, if any.
    #[inline]
    fn get(&self, pkt: PacketId) -> Option<usize> {
        let i = pkt.index();
        let slot = *self.pages.get(i / SLOT_PAGE)?.get(i % SLOT_PAGE)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// Record (or, with `NO_SLOT`, clear) the slot of `pkt`.
    #[inline]
    fn set(&mut self, pkt: PacketId, slot: u32) {
        let i = pkt.index();
        while self.pages.len() <= i / SLOT_PAGE {
            self.pages.push(vec![NO_SLOT; SLOT_PAGE].into_boxed_slice());
        }
        self.pages[i / SLOT_PAGE][i % SLOT_PAGE] = slot;
    }
}

/// A landmark station's packets: unbounded, unordered, O(1) to change.
///
/// Members sit in a plain `Vec` in arbitrary order, and a [`SlotIndex`]
/// the caller owns records each member's position. Insert is a push and
/// remove a `swap_remove` plus one slot fix-up, where a sorted `Vec`
/// would shift the tail of a deep queue on every upload and hand-off.
/// Ascending id order is produced only where it is observed:
/// [`StationStore::sorted_into`] and the checkpoint encoding.
#[derive(Debug, Clone, Default)]
pub struct StationStore {
    used: u64,
    members: Vec<PacketId>,
}

impl StationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of packets stored.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in storage order (arbitrary, not ascending).
    pub fn members(&self) -> &[PacketId] {
        &self.members
    }

    /// Whether `pkt` is a member, according to `slots`.
    pub fn contains(&self, pkt: PacketId, slots: &SlotIndex) -> bool {
        self.position(pkt, slots).is_some()
    }

    /// `pkt`'s index in `members`, when it is a member.
    fn position(&self, pkt: PacketId, slots: &SlotIndex) -> Option<usize> {
        slots
            .get(pkt)
            .filter(|&s| self.members.get(s) == Some(&pkt))
    }

    /// Add a packet of `size` bytes and record its slot; inserting a
    /// member twice is a logic error.
    pub fn insert(&mut self, pkt: PacketId, size: u64, slots: &mut SlotIndex) {
        debug_assert!(!self.contains(pkt, slots), "packet {pkt} inserted twice");
        slots.set(pkt, self.members.len() as u32);
        self.members.push(pkt);
        self.used += size;
    }

    /// Remove a packet of `size` bytes; `false` when absent. The last
    /// member moves into the vacated slot.
    pub fn remove(&mut self, pkt: PacketId, size: u64, slots: &mut SlotIndex) -> bool {
        let Some(slot) = self.position(pkt, slots) else {
            return false;
        };
        self.members.swap_remove(slot);
        if let Some(&moved) = self.members.get(slot) {
            slots.set(moved, slot as u32);
        }
        slots.set(pkt, NO_SLOT);
        debug_assert!(self.used >= size, "byte accounting underflow");
        self.used -= size;
        true
    }

    /// Write the members into `out` (cleared first) in ascending id order.
    pub fn sorted_into(&self, out: &mut Vec<PacketId>) {
        out.clear();
        out.extend_from_slice(&self.members);
        out.sort_unstable();
    }

    /// Record every member's slot in `slots` (restore: the slot index is
    /// derived state and is not checkpointed).
    pub fn index_slots(&self, slots: &mut SlotIndex) {
        for (i, &pkt) in self.members.iter().enumerate() {
            slots.set(pkt, i as u32);
        }
    }

    /// Checkpoint encoding (DESIGN.md §11): tag `0` (unbounded), byte
    /// count and the members as ascending indexes — byte for byte what a
    /// sorted unbounded store wrote, so older snapshots still restore.
    pub fn encode(&self, w: &mut Writer) {
        let mut sorted = self.members.clone();
        sorted.sort_unstable();
        w.put_u8(0);
        w.put_u64(self.used);
        w.put_usize(sorted.len());
        for pkt in sorted {
            w.put_u64(pkt.index() as u64);
        }
    }

    /// Inverse of [`StationStore::encode`]. Members come back in
    /// ascending order; the caller rebuilds the slot index with
    /// [`StationStore::index_slots`] once it has checked the ids.
    pub fn decode(r: &mut Reader<'_>) -> Result<StationStore, SnapshotError> {
        const CTX: &str = "StationStore";
        match r.u8(CTX)? {
            0 => {}
            t => {
                return Err(SnapshotError::InvalidTag {
                    context: "StationStore.capacity",
                    tag: t as u64,
                })
            }
        }
        let used = r.u64(CTX)?;
        let members = DenseSet::<PacketId>::decode(r)?.as_slice().to_vec();
        Ok(StationStore { used, members })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PacketId {
        PacketId(i)
    }

    #[test]
    fn bounded_store_enforces_capacity() {
        let mut s = PacketStore::bounded(2_048);
        assert!(s.insert(p(0), 1_024));
        assert!(s.insert(p(1), 1_024));
        assert!(!s.insert(p(2), 1_024));
        assert_eq!(s.len(), 2);
        assert_eq!(s.free_bytes(), 0);
        assert!(s.remove(p(0), 1_024));
        assert!(s.insert(p(2), 1_024));
    }

    #[test]
    fn station_store_never_fills() {
        let mut slots = SlotIndex::new();
        let mut s = StationStore::new();
        for i in 0..10_000 {
            s.insert(p(i), 1_024, &mut slots);
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.used_bytes(), 10_000 * 1_024);
    }

    #[test]
    fn remove_absent_returns_false() {
        let mut s = PacketStore::bounded(1_024);
        assert!(!s.remove(p(5), 1_024));
        assert_eq!(s.used_bytes(), 0);
        let mut slots = SlotIndex::new();
        let mut st = StationStore::new();
        assert!(!st.remove(p(5), 1_024, &mut slots));
        // Beyond every page of the slot index is absent too, not a panic.
        assert!(!st.remove(p(50_000), 1_024, &mut slots));
        assert_eq!(st.used_bytes(), 0);
    }

    #[test]
    fn node_iteration_is_ascending() {
        let mut s = PacketStore::bounded(1_000);
        for i in [5u32, 1, 9, 3] {
            s.insert(p(i), 10);
        }
        let order: Vec<u32> = s.iter().map(|x| x.0).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn station_enumeration_is_ascending_after_swap_removes() {
        let mut slots = SlotIndex::new();
        let mut s = StationStore::new();
        for i in [5u32, 1, 9, 3, 7] {
            s.insert(p(i), 10, &mut slots);
        }
        assert!(s.remove(p(1), 10, &mut slots));
        assert!(!s.contains(p(1), &slots));
        assert!(s.contains(p(7), &slots), "the moved member keeps its slot");
        let mut out = vec![p(0)];
        s.sorted_into(&mut out);
        let order: Vec<u32> = out.iter().map(|x| x.0).collect();
        assert_eq!(order, vec![3, 5, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut s = PacketStore::bounded(100);
        s.insert(p(0), 10);
        s.insert(p(0), 10);
    }

    #[test]
    fn byte_accounting_balances() {
        let mut s = PacketStore::bounded(10_000);
        let mut slots = SlotIndex::new();
        let mut st = StationStore::new();
        for i in 0..5 {
            s.insert(p(i), 100);
            st.insert(p(i), 100, &mut slots);
        }
        for i in 0..5 {
            s.remove(p(i), 100);
            st.remove(p(i), 100, &mut slots);
        }
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
        assert_eq!(st.used_bytes(), 0);
        assert!(st.is_empty());
    }

    #[test]
    fn station_codec_roundtrips_and_rejects_bounded_tag() {
        let mut slots = SlotIndex::new();
        let mut s = StationStore::new();
        for i in [4u32, 2, 8] {
            s.insert(p(i), 1_024, &mut slots);
        }
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let back = StationStore::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.members(), &[p(2), p(4), p(8)]);
        assert_eq!(back.used_bytes(), 3 * 1_024);
        let mut bad = bytes.clone();
        bad[0] = 1;
        assert!(matches!(
            StationStore::decode(&mut Reader::new(&bad)),
            Err(SnapshotError::InvalidTag { .. })
        ));
        // A node store is always bounded: tag 0 is refused.
        assert!(matches!(
            PacketStore::decode(&mut Reader::new(&bytes)),
            Err(SnapshotError::InvalidTag { .. })
        ));
    }
}
