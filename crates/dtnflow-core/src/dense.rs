//! Dense-index containers for the hot paths.
//!
//! The simulator's keys are small dense integers ([`LandmarkId`] is a
//! `u16` index, [`NodeId`]/[`PacketId`] are `u32` indexes), so ordered
//! maps over them do not need a tree: a `Vec` slot per id gives O(1)
//! access and — because slots are laid out in id order — iteration that
//! is deterministic *by construction*, with no per-node heap allocation
//! and no pointer chasing. These containers exist to replace the
//! `BTreeMap`/`BTreeSet` hot-path storage while preserving its one
//! observable property: iteration in ascending key order.
//!
//! * [`DenseMap<K, V>`] — `Vec<Option<V>>` indexed by `K::index()`.
//! * [`DenseSet<K>`] — a sorted `Vec<K>`; membership by binary search,
//!   iteration in id order, contiguous in memory.
//! * [`LinkMatrix`] — a flat `n×n` `Vec<f64>` keyed `from * n + to`,
//!   for per-directed-link tables (EWMA bandwidth, Eq. 4).

use crate::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_snapshot::{Reader, SnapshotError, Writer};
use std::marker::PhantomData;

/// A key that is (or wraps) a small dense integer index.
pub trait DenseKey: Copy + Ord {
    /// Largest index the key type can represent (checkpoint decoding
    /// rejects anything bigger before calling [`DenseKey::from_index`]).
    const MAX_INDEX: usize;
    /// The key's dense index.
    fn index(self) -> usize;
    /// Rebuild the key from its index (inverse of [`DenseKey::index`]).
    fn from_index(i: usize) -> Self;
}

impl DenseKey for LandmarkId {
    const MAX_INDEX: usize = u16::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        LandmarkId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        LandmarkId::from(i)
    }
}

impl DenseKey for NodeId {
    const MAX_INDEX: usize = u32::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        NodeId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        NodeId::from(i)
    }
}

impl DenseKey for PacketId {
    const MAX_INDEX: usize = u32::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        PacketId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        PacketId::from(i)
    }
}

impl DenseKey for u16 {
    const MAX_INDEX: usize = u16::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        LandmarkId::from(i).0
    }
}

impl DenseKey for u32 {
    const MAX_INDEX: usize = u32::MAX as usize;
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        NodeId::from(i).0
    }
}

impl DenseKey for usize {
    const MAX_INDEX: usize = usize::MAX;
    #[inline]
    fn index(self) -> usize {
        self
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        i
    }
}

/// A map from a dense-integer key to `V`, backed by one slot per id.
///
/// Replaces `BTreeMap<K, V>` on hot paths: `get`/`insert`/`remove` are
/// O(1) slot accesses, and iteration walks the slots in ascending id
/// order — the same observable order a `BTreeMap` gives. Removing keeps
/// the slot allocated, so churny maps stop allocating once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        DenseMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with slots pre-allocated for ids `0..n`.
    pub fn with_index_capacity(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        DenseMap {
            slots,
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `v` at `k`, returning the previous value if any.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let i = k.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `k`, if present.
    #[inline]
    pub fn get(&self, k: K) -> Option<&V> {
        self.slots.get(k.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the value at `k`, if present.
    #[inline]
    pub fn get_mut(&mut self, k: K) -> Option<&mut V> {
        self.slots.get_mut(k.index()).and_then(Option::as_mut)
    }

    /// Whether `k` has a value.
    #[inline]
    pub fn contains_key(&self, k: K) -> bool {
        self.get(k).is_some()
    }

    /// Remove and return the value at `k`. The slot stays allocated.
    pub fn remove(&mut self, k: K) -> Option<V> {
        let old = self.slots.get_mut(k.index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value at `k`, inserting `make()` first when absent.
    pub fn get_or_insert_with(&mut self, k: K, make: impl FnOnce() -> V) -> &mut V {
        let i = k.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(make());
            self.len += 1;
        }
        // The slot was just filled when it was empty; this borrow can
        // only be of a present value.
        match slot.as_mut() {
            Some(v) => v,
            // detlint: allow(P1, reason = "the arm above just filled this exact slot; the None branch is unreachable by construction")
            None => unreachable!("slot filled above"),
        }
    }

    /// Remove every entry. Slot storage is kept for reuse.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// Checkpoint encoding (DESIGN.md §11): present entries in ascending
    /// key order, values via `enc`. Canonical — slot capacity (trailing
    /// empty slots) is not observable and is not preserved.
    pub fn encode_with(&self, w: &mut Writer, mut enc: impl FnMut(&mut Writer, &V)) {
        w.put_usize(self.len);
        for (k, v) in self.iter() {
            w.put_u64(k.index() as u64);
            enc(w, v);
        }
    }

    /// Inverse of [`DenseMap::encode_with`]. Rejects out-of-order keys so
    /// decoding then re-encoding is byte-stable.
    pub fn decode_with<E>(
        r: &mut Reader<'_>,
        mut dec: impl FnMut(&mut Reader<'_>) -> Result<V, E>,
    ) -> Result<Self, SnapshotError>
    where
        E: Into<SnapshotError>,
    {
        const CTX: &str = "DenseMap";
        let n = r.seq_len(CTX)?;
        let mut map = Self::new();
        let mut prev: Option<usize> = None;
        for _ in 0..n {
            let idx = r.usize(CTX)?;
            if idx > K::MAX_INDEX || prev.is_some_and(|p| idx <= p) {
                return Err(SnapshotError::Corrupt { context: CTX });
            }
            prev = Some(idx);
            let v = dec(r).map_err(Into::into)?;
            map.insert(K::from_index(idx), v);
        }
        Ok(map)
    }
}

impl<K: DenseKey, V: Default> DenseMap<K, V> {
    /// The value at `k`, inserting `V::default()` first when absent.
    pub fn get_or_default(&mut self, k: K) -> &mut V {
        self.get_or_insert_with(k, V::default)
    }
}

impl<K: DenseKey, V> std::ops::Index<K> for DenseMap<K, V> {
    type Output = V;

    /// Panics when `k` has no entry, like `BTreeMap`'s `Index`.
    fn index(&self, k: K) -> &V {
        match self.get(k) {
            Some(v) => v,
            // detlint: allow(P1, reason = "Index is documented to panic on absent keys, matching BTreeMap's Index contract")
            None => panic!("no entry for key index {}", k.index()),
        }
    }
}

/// A set of dense-integer keys as a sorted `Vec`.
///
/// Replaces `BTreeSet<K>` on hot paths. Membership is a binary search;
/// iteration is a contiguous ascending scan — the same observable order
/// a `BTreeSet` gives, without per-element nodes. Insert/remove shift
/// the tail, an O(len) `memmove`, and the sets are not small: FlowRouter's
/// `by_next_hop` buckets average 1 103 packets at 500 packets/landmark/day
/// and 3 278 at 1000/day. The shift is kept where callers iterate in id
/// order far more often than they churn (node stores, router buckets); a
/// chunked layout measured worse there. Deep, churn-heavy queues with
/// rare ordered reads use `dtnflow_sim::store::StationStore` instead
/// (DESIGN.md §16). `clear` keeps the allocation, so reused buckets stop
/// allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseSet<K> {
    sorted: Vec<K>,
}

impl<K> Default for DenseSet<K> {
    fn default() -> Self {
        DenseSet { sorted: Vec::new() }
    }
}

impl<K: DenseKey> DenseSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        DenseSet { sorted: Vec::new() }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Add `k`; returns whether it was newly inserted.
    pub fn insert(&mut self, k: K) -> bool {
        match self.sorted.binary_search(&k) {
            Ok(_) => false,
            Err(pos) => {
                self.sorted.insert(pos, k);
                true
            }
        }
    }

    /// Remove `k`; returns whether it was present.
    pub fn remove(&mut self, k: K) -> bool {
        match self.sorted.binary_search(&k) {
            Ok(pos) => {
                self.sorted.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `k` is a member.
    pub fn contains(&self, k: K) -> bool {
        self.sorted.binary_search(&k).is_ok()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.sorted.iter().copied()
    }

    /// Keep only members satisfying `keep`, preserving order. One linear
    /// pass — cheaper than collecting victims and removing them one by
    /// one, which re-shifts the tail per removal.
    pub fn retain(&mut self, mut keep: impl FnMut(K) -> bool) {
        self.sorted.retain(|&k| keep(k));
    }

    /// The members as an ascending slice.
    pub fn as_slice(&self) -> &[K] {
        &self.sorted
    }

    /// Remove all members, keeping the allocation.
    pub fn clear(&mut self) {
        self.sorted.clear();
    }

    /// Checkpoint encoding: the members as ascending indexes.
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.sorted.len());
        for k in &self.sorted {
            w.put_u64(k.index() as u64);
        }
    }

    /// Inverse of [`DenseSet::encode`]; rejects unsorted or duplicate
    /// members so re-encoding is byte-stable.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        const CTX: &str = "DenseSet";
        let n = r.seq_len(CTX)?;
        let mut sorted = Vec::with_capacity(n);
        let mut prev: Option<usize> = None;
        for _ in 0..n {
            let idx = r.usize(CTX)?;
            if idx > K::MAX_INDEX || prev.is_some_and(|p| idx <= p) {
                return Err(SnapshotError::Corrupt { context: CTX });
            }
            prev = Some(idx);
            sorted.push(K::from_index(idx));
        }
        Ok(DenseSet { sorted })
    }
}

/// A flat `n×n` table of `f64` values over directed landmark links,
/// stored row-major as `from * n + to`.
///
/// Cells are `NaN` until written, so "absent" needs no `Option`
/// discriminant and present-cell iteration (ascending `(from, to)`,
/// matching `BTreeMap<(u16, u16), _>` order) needs no tree. The matrix
/// grows on demand when a larger id appears.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkMatrix {
    n: usize,
    cells: Vec<f64>,
}

impl LinkMatrix {
    /// An empty matrix; it grows as links are set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A matrix covering ids `0..n`, all cells absent.
    pub fn with_landmarks(n: usize) -> Self {
        LinkMatrix {
            n,
            cells: vec![f64::NAN; n * n],
        }
    }

    /// A matrix covering ids `0..n` with every cell present at `value`
    /// (for tables where every link has a meaningful zero, like the
    /// EWMA bandwidth fold).
    pub fn filled(n: usize, value: f64) -> Self {
        LinkMatrix {
            n,
            cells: vec![value; n * n],
        }
    }

    /// The current side length (one past the largest covered id).
    pub fn side(&self) -> usize {
        self.n
    }

    /// Grow to cover ids `0..n`, preserving existing cells.
    pub fn grow(&mut self, n: usize) {
        if n <= self.n {
            return;
        }
        let mut cells = vec![f64::NAN; n * n];
        for from in 0..self.n {
            let (old, new) = (from * self.n, from * n);
            cells[new..new + self.n].copy_from_slice(&self.cells[old..old + self.n]);
        }
        self.n = n;
        self.cells = cells;
    }

    /// Write the value of the directed link `from → to`, growing the
    /// matrix when needed.
    pub fn set(&mut self, from: u16, to: u16, value: f64) {
        let need = (from.max(to) as usize) + 1;
        if need > self.n {
            self.grow(need);
        }
        self.cells[from as usize * self.n + to as usize] = value;
    }

    /// Raw read of `from → to` without the absence check; out-of-range
    /// and never-written cells read as `NaN`. For matrices built with
    /// [`LinkMatrix::filled`] every in-range cell is a plain value.
    #[inline]
    pub fn at(&self, from: u16, to: u16) -> f64 {
        let (f, t) = (from as usize, to as usize);
        if f >= self.n || t >= self.n {
            return f64::NAN;
        }
        self.cells[f * self.n + t]
    }

    /// The flat row-major cells (`from * side + to`).
    pub fn as_slice(&self) -> &[f64] {
        &self.cells
    }

    /// Mutable flat row-major cells, for whole-table folds.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.cells
    }

    /// The value of `from → to`, if it was ever written.
    pub fn get(&self, from: u16, to: u16) -> Option<f64> {
        let (f, t) = (from as usize, to as usize);
        if f >= self.n || t >= self.n {
            return None;
        }
        let v = self.cells[f * self.n + t];
        (!v.is_nan()).then_some(v)
    }

    /// Number of present (written) cells.
    pub fn len(&self) -> usize {
        self.cells.iter().filter(|v| !v.is_nan()).count()
    }

    /// True when no cell was ever written.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|v| v.is_nan())
    }

    /// Checkpoint encoding: side length plus every cell as raw IEEE-754
    /// bits (`NaN` "absent" markers survive byte-exactly).
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n);
        for &v in &self.cells {
            w.put_f64(v);
        }
    }

    /// Inverse of [`LinkMatrix::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        const CTX: &str = "LinkMatrix";
        let n = r.usize(CTX)?;
        let cells_len = n
            .checked_mul(n)
            .ok_or(SnapshotError::Corrupt { context: CTX })?;
        let mut cells = Vec::with_capacity(cells_len.min(r.remaining() / 8 + 1));
        for _ in 0..cells_len {
            cells.push(r.f64(CTX)?);
        }
        Ok(LinkMatrix { n, cells })
    }

    /// Present cells in ascending `(from, to)` order — the iteration
    /// order of the `BTreeMap<(u16, u16), f64>` this type replaces.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16, f64)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|&(_, v)| !v.is_nan())
            .map(|(i, &v)| {
                let from = LandmarkId::from(i / self.n).0;
                let to = LandmarkId::from(i % self.n).0;
                (from, to, v)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_map_basic_ops_and_order() {
        let mut m: DenseMap<LandmarkId, &str> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(LandmarkId(5), "five"), None);
        assert_eq!(m.insert(LandmarkId(1), "one"), None);
        assert_eq!(m.insert(LandmarkId(5), "FIVE"), Some("five"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(LandmarkId(5)), Some(&"FIVE"));
        assert_eq!(m.get(LandmarkId(0)), None);
        assert_eq!(m.get(LandmarkId(999)), None);
        // Iteration ascends by id regardless of insertion order.
        let keys: Vec<u16> = m.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![1, 5]);
        assert_eq!(m.remove(LandmarkId(1)), Some("one"));
        assert_eq!(m.remove(LandmarkId(1)), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty() && m.get(LandmarkId(5)).is_none());
    }

    #[test]
    fn dense_map_get_or_default_counts() {
        let mut m: DenseMap<u16, u64> = DenseMap::new();
        *m.get_or_default(3) += 1;
        *m.get_or_default(3) += 1;
        *m.get_or_default(0) += 1;
        assert_eq!(m.get(3), Some(&2));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, &1), (3, &2)]);
    }

    #[test]
    fn dense_map_values_mut_in_key_order() {
        let mut m: DenseMap<u32, i32> = DenseMap::with_index_capacity(8);
        m.insert(6, 60);
        m.insert(2, 20);
        for v in m.values_mut() {
            *v += 1;
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![21, 61]);
    }

    #[test]
    fn dense_set_matches_btreeset_semantics() {
        let mut s: DenseSet<PacketId> = DenseSet::new();
        assert!(s.insert(PacketId(7)));
        assert!(s.insert(PacketId(2)));
        assert!(!s.insert(PacketId(7)));
        assert!(s.contains(PacketId(2)));
        assert!(!s.contains(PacketId(3)));
        let got: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![2, 7]);
        assert!(s.remove(PacketId(2)));
        assert!(!s.remove(PacketId(2)));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn link_matrix_layout_is_from_times_n_plus_to() {
        let mut m = LinkMatrix::with_landmarks(3);
        assert!(m.is_empty());
        m.set(1, 2, 0.5);
        m.set(0, 1, 0.25);
        m.set(1, 2, 0.75); // overwrite
        assert_eq!(m.get(1, 2), Some(0.75));
        assert_eq!(m.get(2, 1), None);
        assert_eq!(m.len(), 2);
        // Ascending (from, to): (0,1) before (1,2).
        let got: Vec<(u16, u16, f64)> = m.iter().collect();
        assert_eq!(got, vec![(0, 1, 0.25), (1, 2, 0.75)]);
    }

    #[test]
    fn link_matrix_grows_preserving_cells() {
        let mut m = LinkMatrix::new();
        m.set(0, 1, 1.0);
        assert_eq!(m.side(), 2);
        m.set(4, 0, 2.0); // forces growth to 5×5
        assert_eq!(m.side(), 5);
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(4, 0), Some(2.0));
        assert_eq!(m.get(3, 3), None);
        let got: Vec<(u16, u16, f64)> = m.iter().collect();
        assert_eq!(got, vec![(0, 1, 1.0), (4, 0, 2.0)]);
    }

    #[test]
    fn key_roundtrips() {
        assert_eq!(NodeId::from_index(4).index(), 4);
        assert_eq!(LandmarkId::from_index(9).index(), 9);
        assert_eq!(PacketId::from_index(1).index(), 1);
        assert_eq!(<u16 as DenseKey>::from_index(3), 3u16);
        assert_eq!(<u32 as DenseKey>::from_index(5), 5u32);
        assert_eq!(<usize as DenseKey>::from_index(6), 6usize);
    }
}
