//! `StationPath` against a `Vec<LandmarkId>` model: the inline form and
//! the heap form it spills into on the eighth visit must be
//! indistinguishable to every reader of a packet's path — loop
//! detection, loop members, equality, `Debug` and the checkpoint bytes.

use dtnflow_core::packet::{Packet, StationPath};
use dtnflow_core::time::{SimTime, DAY};
use dtnflow_core::{LandmarkId, PacketId};
use dtnflow_snapshot::{Reader, Writer};
use proptest::prelude::*;

/// The model of [`Packet::loop_members`]: the visits from the first to
/// the last occurrence of `lm`, when it occurs at least twice.
fn model_loop(path: &[LandmarkId], lm: LandmarkId) -> &[LandmarkId] {
    let first = path.iter().position(|&v| v == lm);
    let last = path.iter().rposition(|&v| v == lm);
    match (first, last) {
        (Some(a), Some(b)) if a < b => &path[a..=b],
        _ => &[],
    }
}

fn encoded(p: &Packet) -> Vec<u8> {
    let mut w = Writer::new();
    p.encode(&mut w);
    w.into_bytes()
}

proptest! {
    #[test]
    fn station_path_equals_vec_model(visits in proptest::collection::vec(0u16..6, 0..20)) {
        let mut pkt = Packet::new(PacketId(3), LandmarkId(0), LandmarkId(9), SimTime(5), DAY);
        let mut plain = StationPath::new();
        let mut model: Vec<LandmarkId> = Vec::new();
        for v in visits {
            let lm = LandmarkId(v);
            prop_assert_eq!(pkt.record_station_visit(lm), model.contains(&lm));
            plain.push(lm);
            model.push(lm);

            prop_assert_eq!(&pkt.visited[..], &model[..]);
            prop_assert_eq!(plain.as_slice(), &model[..]);
            prop_assert_eq!(pkt.visited.len(), model.len());
            for probe in (0..7).map(LandmarkId) {
                prop_assert_eq!(pkt.visited.contains(&probe), model.contains(&probe));
                prop_assert_eq!(pkt.loop_members(probe), model_loop(&model, probe));
            }
            // `From<Vec>` keeps the heap form even for short paths, so
            // this compares the inline form with the heap form below the
            // spill point and two heap forms above it.
            let adopted = StationPath::from(model.clone());
            prop_assert_eq!(&pkt.visited, &adopted);
            prop_assert_eq!(format!("{:?}", pkt.visited), format!("{:?}", model));
            prop_assert_eq!((&pkt.visited).into_iter().copied().collect::<Vec<_>>(), model.clone());

            let mut twin = pkt.clone();
            twin.visited = adopted;
            let bytes = encoded(&pkt);
            prop_assert_eq!(&bytes, &encoded(&twin));
            let back = Packet::decode(&mut Reader::new(&bytes)).expect("roundtrip decodes");
            prop_assert_eq!(&back.visited, &pkt.visited);
            prop_assert_eq!(encoded(&back), bytes);
        }
    }
}
