//! Equivalence properties: the dense hot-path containers must be
//! observationally identical to the ordered-tree containers they
//! replaced. For any sequence of operations, `DenseMap` behaves like
//! `BTreeMap`, `DenseSet` like `BTreeSet`, and `LinkMatrix` like a
//! `BTreeMap<(u16, u16), f64>` — same lookups, same lengths, and the
//! same ascending iteration order (which is what keeps float
//! accumulations and CSV goldens byte-stable across the swap).

use dtnflow_core::dense::{DenseMap, DenseSet, LinkMatrix};
use proptest::prelude::*;

/// One step of a map workload, generated over a small key space so that
/// inserts, overwrites, removes, and misses all occur frequently.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u64),
    Remove(u16),
    Get(u16),
    Clear,
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0u16..64, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            3 => (0u16..64).prop_map(MapOp::Remove),
            3 => (0u16..64).prop_map(MapOp::Get),
            1 => Just(MapOp::Clear),
        ],
        0..120,
    )
}

/// One step of a set workload for the append and batched-removal paths.
#[derive(Debug, Clone)]
enum SetOp {
    Append(u16),
    Insert(u16),
    Remove(u16),
    RemoveBatch(Vec<u16>),
}

proptest! {
    #[test]
    fn dense_map_equals_btree_map(ops in map_ops()) {
        let mut dense: DenseMap<u16, u64> = DenseMap::new();
        let mut tree: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(dense.insert(k, v), tree.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(dense.remove(k), tree.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(dense.get(k), tree.get(&k));
                    prop_assert_eq!(dense.contains_key(k), tree.contains_key(&k));
                }
                MapOp::Clear => {
                    dense.clear();
                    tree.clear();
                }
            }
            prop_assert_eq!(dense.len(), tree.len());
            prop_assert_eq!(dense.is_empty(), tree.is_empty());
        }
        // Iteration order and contents match exactly (ascending keys).
        let dense_items: Vec<(u16, u64)> = dense.iter().map(|(k, &v)| (k, v)).collect();
        let tree_items: Vec<(u16, u64)> = tree.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(dense_items, tree_items);
        let dense_keys: Vec<u16> = dense.keys().collect();
        let tree_keys: Vec<u16> = tree.keys().copied().collect();
        prop_assert_eq!(dense_keys, tree_keys);
        let dense_vals: Vec<u64> = dense.values().copied().collect();
        let tree_vals: Vec<u64> = tree.values().copied().collect();
        prop_assert_eq!(dense_vals, tree_vals);
    }

    #[test]
    fn dense_set_equals_btree_set(ops in proptest::collection::vec(
        prop_oneof![
            5 => (0u16..64).prop_map(|k| (0u8, k)),   // insert
            3 => (0u16..64).prop_map(|k| (1u8, k)),   // remove
            3 => (0u16..64).prop_map(|k| (2u8, k)),   // contains
            1 => (0u16..64).prop_map(|k| (3u8, k)),   // retain != k
        ],
        0..120,
    )) {
        let mut dense: DenseSet<u16> = DenseSet::new();
        let mut tree: std::collections::BTreeSet<u16> = std::collections::BTreeSet::new();
        for (kind, k) in ops {
            match kind {
                0 => {
                    prop_assert_eq!(dense.insert(k), tree.insert(k));
                }
                1 => {
                    prop_assert_eq!(dense.remove(k), tree.remove(&k));
                }
                2 => {
                    prop_assert_eq!(dense.contains(k), tree.contains(&k));
                }
                _ => {
                    dense.retain(|x| x != k);
                    tree.retain(|&x| x != k);
                }
            }
            prop_assert_eq!(dense.len(), tree.len());
        }
        let dense_items: Vec<u16> = dense.iter().collect();
        let tree_items: Vec<u16> = tree.iter().copied().collect();
        prop_assert_eq!(dense_items, tree_items);
    }

    #[test]
    fn dense_set_appends_and_batched_removals_equal_btree_set(ops in proptest::collection::vec(
        prop_oneof![
            // Append: a key above the current maximum (the push path).
            4 => (1u16..4).prop_map(SetOp::Append),
            // Anywhere, usually below the maximum (the shifting path).
            2 => (0u16..200).prop_map(SetOp::Insert),
            2 => (0u16..200).prop_map(SetOp::Remove),
            // A batch mixing members and non-members, in any order; it is
            // sorted and deduplicated before `remove_ascending`.
            1 => proptest::collection::vec(0u16..200, 0..24).prop_map(SetOp::RemoveBatch),
        ],
        0..160,
    )) {
        let mut dense: DenseSet<u16> = DenseSet::new();
        let mut tree: std::collections::BTreeSet<u16> = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Append(delta) => {
                    let k = tree.last().map_or(0, |&m| m.saturating_add(delta));
                    prop_assert_eq!(dense.insert(k), tree.insert(k));
                }
                SetOp::Insert(k) => {
                    prop_assert_eq!(dense.insert(k), tree.insert(k));
                }
                SetOp::Remove(k) => {
                    prop_assert_eq!(dense.remove(k), tree.remove(&k));
                }
                SetOp::RemoveBatch(mut victims) => {
                    victims.sort_unstable();
                    victims.dedup();
                    let expected = victims.iter().filter(|&&k| tree.remove(&k)).count();
                    prop_assert_eq!(dense.remove_ascending(&victims), expected);
                }
            }
            prop_assert_eq!(dense.len(), tree.len());
            let tree_items: Vec<u16> = tree.iter().copied().collect();
            prop_assert_eq!(dense.as_slice(), &tree_items[..]);
        }
    }

    #[test]
    fn link_matrix_equals_btree_pair_map(ops in proptest::collection::vec(
        (0u16..24, 0u16..24, -1e6f64..1e6), 0..120,
    )) {
        let mut dense = LinkMatrix::new();
        let mut tree: std::collections::BTreeMap<(u16, u16), f64> =
            std::collections::BTreeMap::new();
        for (from, to, value) in ops {
            dense.set(from, to, value);
            tree.insert((from, to), value);
            prop_assert_eq!(dense.get(from, to), Some(value));
        }
        // Every set cell reads back; every unset cell reads absent.
        for from in 0..24u16 {
            for to in 0..24u16 {
                prop_assert_eq!(dense.get(from, to), tree.get(&(from, to)).copied());
            }
        }
        // Ascending (from, to) iteration, skipping absent cells, matches
        // the ordered pair-map exactly.
        let dense_items: Vec<(u16, u16, f64)> = dense.iter().collect();
        let tree_items: Vec<(u16, u16, f64)> =
            tree.iter().map(|(&(f, t), &v)| (f, t, v)).collect();
        prop_assert_eq!(dense_items, tree_items);
    }
}
