//! Property tests: the catalog's recall order agrees with its rows.

use copra_metadb::{TsmCatalog, TsmObjectRow};
use copra_simtime::SimInstant;
use proptest::prelude::*;

proptest! {
    /// sort_for_recall returns rows sorted by (tape, seq) and exactly the
    /// known subset of the requested ids.
    #[test]
    fn recall_order_is_sorted_and_complete(
        rows in prop::collection::vec((0u64..1000, 0u32..16, 0u32..64), 1..60),
        extra in prop::collection::vec(1000u64..2000, 0..10),
    ) {
        let catalog = TsmCatalog::new();
        let mut known = std::collections::BTreeSet::new();
        for (i, (objid_base, tape, seq)) in rows.iter().enumerate() {
            let objid = objid_base + i as u64 * 1000; // unique
            known.insert(objid);
            catalog.record(TsmObjectRow {
                objid,
                path: format!("/f{objid}"),
                fs_ino: objid + 1,
                tape: *tape,
                seq: *seq,
                len: 1,
                stored_at: SimInstant::EPOCH,
            });
        }
        let mut ask: Vec<u64> = known.iter().cloned().collect();
        ask.extend(extra.iter().cloned().filter(|e| !known.contains(e)));
        let sorted = catalog.sort_for_recall(&ask);
        prop_assert_eq!(sorted.len(), known.len(), "unknown ids must be skipped");
        for w in sorted.windows(2) {
            prop_assert!(
                (w[0].tape, w[0].seq, w[0].objid) <= (w[1].tape, w[1].seq, w[1].objid)
            );
        }
    }
}
