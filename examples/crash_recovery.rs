//! Crash recovery tour: kill a synchronous delete half-way, then recover.
//!
//! Migrates a few files to tape, arms a scripted crash point that "kills
//! the process" right after the unlink of a sync-delete — the exact torn
//! state §4.2.6's integration has to fear: the file is gone from GPFS but
//! its tape object still lives in the TSM DB. `ArchiveSystem::recover`
//! reads the intent journal, completes the delete forward, scrubs the
//! stores back into agreement, and the before/after dashboards show the
//! journal and scrub counters doing it.
//!
//! Run with: `cargo run --release --example crash_recovery`

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, SyncDeleteError, SyncDeleter, SystemConfig};
use copra::faults::FaultPlan;
use copra::hsm::DataPath;
use copra::vfs::Content;
use std::sync::Arc;

fn main() {
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    sys.archive().mkdir_p("/data").unwrap();
    let mut cursor = sys.clock().now();
    for i in 0..3u64 {
        let path = format!("/data/f{i}");
        sys.archive()
            .create_file(&path, 0, Content::synthetic(i, 2_000_000 + i * 100_000))
            .unwrap();
        let ino = sys.archive().resolve(&path).unwrap();
        let (_, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }
    sys.export_catalog();
    sys.clock().advance_to(cursor);

    // The process will die right after /data/f1's unlink: past the point
    // of no return, before any tape object is deleted.
    sys.arm_faults(FaultPlan::new(7).crash_at("syncdel.after_unlink", 1));
    let deleter = SyncDeleter::new(sys.hsm().clone(), Arc::clone(sys.catalog()));
    match deleter.delete_file("/data/f1", cursor) {
        Err(SyncDeleteError::Crashed { site }) => {
            println!("sync-delete of /data/f1 died at crash point `{site}`\n")
        }
        other => panic!("expected a crash, got {other:?}"),
    }
    println!(
        "torn state: /data/f1 exists = {}, journal holds {} open intent(s)\n",
        sys.archive().exists("/data/f1"),
        sys.journal().open_intents().len(),
    );
    println!("== dashboard before recovery ==\n{}", sys.dashboard());

    let report = sys.recover(sys.clock().now()).unwrap();
    println!(
        "\nrecovered: {} replayed, {} rolled back, {} completed forward; scrub clean = {}\n",
        report.replayed,
        report.rolled_back,
        report.forward_completed,
        report.scrub.is_clean(),
    );
    assert_eq!(
        report.forward_completed, 1,
        "the torn delete finishes forward"
    );
    assert!(sys.journal().is_empty());
    assert_eq!(sys.export_catalog(), 0, "catalog agrees with the server DB");
    println!("== dashboard after recovery ==\n{}", sys.dashboard());
}
