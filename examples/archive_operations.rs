//! Day-two archive operations: the extensions beyond the paper's pilot.
//!
//! * **multi-dimensional metadata search** — the paper's §7 future-work
//!   item: query the archive by owner / size / age / residency / volume
//!   without recalling a single stub;
//! * **copy storage pools** — §3.1-7's "multiple copies" requirement:
//!   `Mirror { copies: 2 }` placement writes a second tape copy on a
//!   distinct volume of the single library, with transparent fallback
//!   when the primary's media fails;
//! * **volume reclamation** — dead space left by synchronous deletes is
//!   consolidated and cartridges returned to scratch.
//!
//! Run with: `cargo run --release --example archive_operations`

use copra::cluster::NodeId;
use copra::core::{ArchiveSearch, ArchiveSystem, Query, SystemConfig};
use copra::hsm::{reclaim_eligible, DataPath, PlacementPolicy};
use copra::pfs::HsmState;
use copra::simtime::SimInstant;
use copra::vfs::Content;
use copra::workloads::{mixed_tree, populate};

fn main() {
    let sys = ArchiveSystem::new(SystemConfig {
        placement: PlacementPolicy::Mirror { copies: 2 },
        ..SystemConfig::test_small()
    });
    let tree = mixed_tree(40, 5_000_000, 1.0, 4, 77);
    populate(sys.archive(), "/proj", &tree);

    // Migrate everything with one extra tape copy per object.
    let records = sys.archive().scan_records();
    let mut cursor = SimInstant::EPOCH;
    for rec in &records {
        let (_, t) = sys
            .hsm()
            .migrate_file(rec.ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }
    sys.clock().advance_to(cursor);
    sys.export_catalog();
    println!(
        "migrated {} files with copy pool: {} objects in the TSM DB",
        records.len(),
        sys.hsm().server().db_len()
    );

    // --- metadata search (no tape touched) ------------------------------
    let search = ArchiveSearch::build(sys.archive(), sys.catalog());
    let big_and_migrated = search.search(&Query {
        min_size: Some(8_000_000),
        hsm: Some(HsmState::Migrated),
        ..Query::default()
    });
    println!(
        "search: {} migrated files over 8 MB (plan: {:?}); largest = {}",
        big_and_migrated.len(),
        search.plan(&Query {
            min_size: Some(8_000_000),
            hsm: Some(HsmState::Migrated),
            ..Query::default()
        }),
        big_and_migrated
            .iter()
            .max_by_key(|e| e.size)
            .map(|e| format!("{} ({:.1} MB on {:?})", e.path, e.size as f64 / 1e6, e.tape))
            .unwrap_or_default()
    );
    let by_owner = search.search(&Query {
        uid: Some(1003),
        ..Query::default()
    });
    println!("search: uid 1003 owns {} files", by_owner.len());

    // --- media failure absorbed by the copy pool ------------------------
    let victim = &records[7];
    let objid = sys
        .catalog()
        .by_ino(victim.ino.0)
        .first()
        .map(|r| r.objid)
        .unwrap();
    let addr = sys.hsm().server().get(objid).unwrap().addr;
    sys.hsm().server().library().damage_record(addr).unwrap();
    let t = sys
        .hsm()
        .recall_file(
            victim.ino,
            NodeId(1),
            DataPath::LanFree,
            sys.clock().now(),
            None,
        )
        .unwrap();
    sys.clock().advance_to(t);
    let back = sys.archive().vfs().peek_content(victim.ino).unwrap();
    println!(
        "media failure on {}: recall served from the copy volume ({} bytes intact)",
        victim.path,
        back.len()
    );
    let spec = tree
        .files
        .iter()
        .find(|f| victim.path == format!("/proj/{}", f.rel_path))
        .expect("victim comes from the generated tree");
    assert!(back.eq_content(&Content::synthetic(spec.seed, spec.size)));

    // --- delete a batch, then reclaim the dead space --------------------
    for rec in records.iter().step_by(2) {
        if rec.ino == victim.ino {
            continue;
        }
        if let Some(row) = sys.catalog().by_ino(rec.ino.0).first() {
            let end = sys
                .hsm()
                .server()
                .delete_object(row.objid, sys.clock().now())
                .unwrap();
            sys.clock().advance_to(end);
            sys.archive().unlink(&rec.path).unwrap();
        }
    }
    let reports = reclaim_eligible(sys.hsm().server(), 0.3, sys.clock().now()).unwrap();
    let moved: f64 = reports
        .iter()
        .map(|(_, r)| r.moved_bytes as f64 / 1e6)
        .sum();
    let recovered = reports.iter().filter(|(_, r)| r.erased).count();
    println!(
        "reclamation: {} volumes processed, {:.1} MB of live data consolidated, {} cartridges back to scratch",
        reports.len(),
        moved,
        recovered
    );
}
