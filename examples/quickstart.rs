//! Quickstart: the whole archive life cycle in one sitting.
//!
//! Builds the COTS Parallel Archive System (scratch PFS ↔ FTA cluster ↔
//! archive GPFS ↔ TSM ↔ tape library), then walks a dataset through it:
//!
//! 1. `pfcp` a scratch tree into the archive (parallel copy);
//! 2. `pfcm` to verify integrity;
//! 3. run the ILM policy + parallel migrator to push data to tape;
//! 4. read a stubbed file back (transparent recall);
//! 5. delete through the trashcan and purge with the synchronous deleter —
//!    and prove reconciliation finds nothing left to clean.
//!
//! Run with: `cargo run --release --example quickstart`

use copra::core::{
    migrate_candidates, ArchiveSystem, MigrationPolicy, SyncDeleter, SystemConfig, Trashcan,
};
use copra::hsm::{reconcile, DataPath};
use copra::pfs::HsmState;
use copra::pftool::PftoolConfig;
use copra::simtime::SimDuration;
use copra::vfs::Content;
use copra_cluster::NodeId;

fn main() {
    // 1. Build the system (scaled-down deployment; swap in
    //    SystemConfig::roadrunner() for the paper's full shape).
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    println!(
        "system up: {} FTA nodes, {} tape drives, pools: {:?}",
        sys.cluster().node_count(),
        sys.hsm().server().library().drive_count(),
        sys.archive()
            .pools()
            .iter()
            .map(|p| p.name().to_string())
            .collect::<Vec<_>>(),
    );

    // A simulation campaign drops results on the scratch file system.
    let scratch = sys.scratch();
    scratch.mkdir_p("/campaign/run1").unwrap();
    for i in 0..20u64 {
        scratch
            .create_file(
                &format!("/campaign/run1/snapshot{i:03}.dat"),
                1001,
                Content::synthetic(i, 5_000_000 + i * 250_000),
            )
            .unwrap();
    }

    // 2. Archive it with pfcp.
    let config = PftoolConfig::test_small();
    let report = sys.archive_tree("/campaign", "/archive/campaign", &config);
    println!(
        "pfcp: {} files, {:.1} MB in {:.1} simulated s ({:.0} MB/s)",
        report.stats.files,
        report.stats.bytes as f64 / 1e6,
        report.stats.sim_seconds(),
        report.stats.rate_mb_s()
    );
    assert!(report.stats.ok());

    // 3. Verify with pfcm.
    let cmp = sys.verify_tree("/campaign", "/archive/campaign", &config);
    println!(
        "pfcm: {} files compared, {} mismatches",
        cmp.stats.files,
        cmp.mismatches.len()
    );
    assert!(cmp.identical());

    // 4. ILM: list aged candidates and migrate them to tape, size-balanced
    //    across the cluster.
    sys.clock()
        .advance_to(sys.clock().now() + SimDuration::from_secs(7 * 86_400));
    let policy = sys.migration_policy(SimDuration::from_secs(86_400));
    let scan = sys.archive().run_policy(&policy);
    let candidates = &scan.lists["migrate"];
    println!(
        "ILM scan: {} files scanned, {} migration candidates",
        scan.scanned,
        candidates.len()
    );
    let nodes: Vec<NodeId> = sys.cluster().nodes().collect();
    let migration = migrate_candidates(
        sys.hsm(),
        candidates,
        &nodes,
        MigrationPolicy::SizeBalanced,
        DataPath::LanFree,
        sys.clock().now(),
        true, // punch holes: stubs remain on disk
        None,
    );
    println!(
        "migrated {} files / {:.1} MB to tape in {} transactions",
        migration.files,
        migration.bytes as f64 / 1e6,
        migration.transactions
    );
    sys.export_catalog();

    // 5. Transparent recall: reading a stub raises the DMAPI event; the
    //    HSM brings the data back.
    let stub = sys
        .archive()
        .resolve("/archive/campaign/run1/snapshot007.dat")
        .unwrap();
    assert_eq!(sys.archive().hsm_state(stub).unwrap(), HsmState::Migrated);
    let t = sys
        .hsm()
        .recall_file(stub, NodeId(0), DataPath::LanFree, sys.clock().now(), None)
        .unwrap();
    sys.clock().advance_to(t);
    println!(
        "recalled snapshot007.dat: state={}",
        sys.archive().hsm_state(stub).unwrap()
    );

    // 6. User deletes a file → trashcan; admin purge → synchronous delete.
    let trash = Trashcan::new(sys.fuse().clone());
    let parked = trash
        .delete("/archive/campaign/run1/snapshot003.dat")
        .unwrap();
    println!("user delete parked at {parked}");
    sys.clock()
        .advance_to(sys.clock().now() + SimDuration::from_secs(40 * 86_400));
    let purge = trash.purge_candidates(SimDuration::from_secs(30 * 86_400), u64::MAX);
    let deleter = SyncDeleter::new(sys.hsm().clone(), sys.catalog().clone());
    let purged = deleter.purge(&purge, sys.clock().now());
    println!(
        "synchronous delete: {} files, {} tape objects ({} errors)",
        purged.files_deleted,
        purged.objects_deleted,
        purged.errors.len()
    );

    // Reconciliation confirms there is nothing left to garbage-collect —
    // the integration's whole point (§4.2.6).
    let rec = reconcile(sys.archive(), sys.hsm().server(), purged.end, false).unwrap();
    println!(
        "reconcile check: {} fs files vs {} db objects, {} orphans",
        rec.fs_files,
        rec.db_objects,
        rec.orphans.len()
    );
    assert!(rec.orphans.is_empty());
    println!("\nquickstart complete — archive is consistent end to end.");
}
