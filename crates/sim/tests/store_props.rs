//! Equivalence of the unordered, slot-indexed `StationStore` with the
//! sorted set it replaced (DESIGN.md §16): under any sequence of inserts
//! and removes it enumerates the same members in ascending order, keeps
//! the same byte count, and checkpoints to the same bytes as the sorted
//! unbounded store, so snapshots written before the change still restore.

use dtnflow_core::dense::DenseSet;
use dtnflow_core::ids::PacketId;
use dtnflow_sim::store::{SlotIndex, StationStore};
use dtnflow_snapshot::{Reader, Writer};
use proptest::prelude::*;
use std::collections::BTreeSet;

const SIZE: u64 = 1_024;
/// Spreads model ids over packet ids, so sequences span several pages of
/// the slot index. Monotone, so ascending order is preserved.
const STRIDE: u32 = 97;

fn pkt(id: u32) -> PacketId {
    PacketId(id * STRIDE)
}

/// The checkpoint bytes of the sorted unbounded store that held
/// `members`: tag 0, byte count, then the member set ascending.
fn sorted_store_bytes(members: &BTreeSet<u32>, used: u64) -> Vec<u8> {
    let mut set = DenseSet::new();
    for &m in members {
        set.insert(pkt(m));
    }
    let mut w = Writer::new();
    w.put_u8(0);
    w.put_u64(used);
    set.encode(&mut w);
    w.into_bytes()
}

fn encode(store: &StationStore) -> Vec<u8> {
    let mut w = Writer::new();
    store.encode(&mut w);
    w.into_bytes()
}

#[test]
fn encoding_is_pinned() {
    let mut slots = SlotIndex::new();
    let mut s = StationStore::new();
    for id in [7u32, 2, 5] {
        s.insert(PacketId(id), SIZE, &mut slots);
    }
    s.remove(PacketId(7), SIZE, &mut slots);
    #[rustfmt::skip]
    let want: [u8; 33] = [
        0,                              // unbounded
        0, 8, 0, 0, 0, 0, 0, 0,         // 2048 bytes used
        2, 0, 0, 0, 0, 0, 0, 0,         // two members
        2, 0, 0, 0, 0, 0, 0, 0,         // packet 2
        5, 0, 0, 0, 0, 0, 0, 0,         // packet 5
    ];
    assert_eq!(encode(&s), want);
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
}

fn arb_ops() -> impl Strategy<Value = (u32, Vec<Op>)> {
    (4u32..300).prop_flat_map(|ids| {
        let op = prop_oneof![
            3 => (0..ids).prop_map(Op::Insert),
            2 => (0..ids).prop_map(Op::Remove),
        ];
        (Just(ids), proptest::collection::vec(op, 0..400))
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        ..ProptestConfig::default()
    })]

    #[test]
    fn station_store_matches_sorted_model((ids, ops) in arb_ops()) {
        let mut slots = SlotIndex::new();
        let mut store = StationStore::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut sorted = Vec::new();
        for op in ops {
            match op {
                Op::Insert(id) => {
                    // Double inserts are a caller bug the world never
                    // makes (`loc` says where a packet is); skip them.
                    if model.insert(id) {
                        store.insert(pkt(id), SIZE, &mut slots);
                    }
                }
                Op::Remove(id) => {
                    prop_assert_eq!(
                        store.remove(pkt(id), SIZE, &mut slots),
                        model.remove(&id)
                    );
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.used_bytes(), model.len() as u64 * SIZE);
            store.sorted_into(&mut sorted);
            let want: Vec<PacketId> = model.iter().map(|&m| pkt(m)).collect();
            prop_assert_eq!(&sorted, &want);
            for id in 0..ids {
                prop_assert_eq!(store.contains(pkt(id), &slots), model.contains(&id));
            }
        }
        let bytes = encode(&store);
        prop_assert_eq!(&bytes, &sorted_store_bytes(&model, store.used_bytes()));
        // Decoding and re-indexing gives a store that encodes the same.
        let back = StationStore::decode(&mut Reader::new(&bytes)).unwrap();
        let mut slots2 = SlotIndex::new();
        back.index_slots(&mut slots2);
        for id in 0..ids {
            prop_assert_eq!(back.contains(pkt(id), &slots2), model.contains(&id));
        }
        prop_assert_eq!(encode(&back), bytes);
    }
}
