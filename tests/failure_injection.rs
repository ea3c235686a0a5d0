//! Cross-crate failure injection: what breaks, what survives, what is
//! reported — the operational half of an archive's credibility.

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, SystemConfig};
use copra::hsm::{reconcile, DataPath, HsmError, PlacementPolicy, TsmServer};
use copra::obs::Registry;
use copra::pftool::PftoolConfig;
use copra::simtime::{DataSize, SimInstant};
use copra::tape::{TapeFleet, TapeTiming};
use copra::vfs::Content;
use copra::workloads::{mixed_tree, populate};

fn config() -> PftoolConfig {
    PftoolConfig::test_small()
}

/// A corrupted byte range at the destination is caught by pfcm and named
/// precisely — and nothing else is flagged.
#[test]
fn pfcm_pinpoints_corruption() {
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    let tree = mixed_tree(25, 2_000_000, 1.0, 5, 21);
    populate(sys.scratch(), "/src", &tree);
    let report = sys.archive_tree("/src", "/dst", &config());
    assert!(report.stats.ok());
    // Flip bytes in two files.
    for victim in ["/dst/d000/e000/f0000000.dat", "/dst/d002/e000/f0000002.dat"] {
        let ino = sys.archive().resolve(victim).unwrap();
        sys.archive()
            .write_at(ino, 100, Content::literal(&b"CORRUPT"[..]))
            .unwrap();
    }
    let cmp = sys.verify_tree("/src", "/dst", &config());
    let mut got = cmp.mismatches.clone();
    got.sort();
    assert_eq!(
        got,
        vec![
            "/src/d000/e000/f0000000.dat".to_string(),
            "/src/d002/e000/f0000002.dat".to_string()
        ]
    );
    assert_eq!(cmp.stats.files, 25);
}

/// Deleting files behind the archive's back (raw unlink, no trashcan)
/// orphans tape objects; reconcile finds exactly those and fix-mode
/// restores consistency.
#[test]
fn reconcile_catches_out_of_band_deletes() {
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    let tree = mixed_tree(20, 1_000_000, 0.5, 4, 8);
    populate(sys.archive(), "/d", &tree);
    let records = sys.archive().scan_records();
    let mut cursor = sys.clock().now();
    let mut victims = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let (objid, t) = sys
            .hsm()
            .migrate_file(rec.ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
        if i % 4 == 0 {
            victims.push((rec.path.clone(), objid));
        }
    }
    // Out-of-band unlink (what the chroot jail exists to prevent).
    for (path, _) in &victims {
        sys.archive().unlink(path).unwrap();
    }
    let rep = reconcile(sys.archive(), sys.hsm().server(), cursor, true).unwrap();
    let mut found = rep.orphans.clone();
    found.sort_unstable();
    let mut expected: Vec<u64> = victims.iter().map(|(_, o)| *o).collect();
    expected.sort_unstable();
    assert_eq!(found, expected);
    // Fixed: second pass is clean and tape records are gone.
    let rep2 = reconcile(sys.archive(), sys.hsm().server(), rep.end, false).unwrap();
    assert!(rep2.orphans.is_empty());
}

/// Recalling a file whose tape object was deleted fails with a precise
/// error instead of corrupting anything.
#[test]
fn recall_of_deleted_object_fails_cleanly() {
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    let ino = sys
        .archive()
        .create_file("/f", 0, Content::synthetic(1, 1_000_000))
        .unwrap();
    let (objid, t) = sys
        .hsm()
        .migrate_file(
            ino,
            NodeId(0),
            DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            None,
        )
        .unwrap();
    sys.hsm().server().delete_object(objid, t).unwrap();
    let err = sys
        .hsm()
        .recall_file(ino, NodeId(0), DataPath::LanFree, t, None)
        .unwrap_err();
    assert_eq!(err, HsmError::NoSuchObject(objid));
    // The stub is still a stub — not silently zeroed.
    assert_eq!(sys.archive().stat("/f").unwrap().size, 1_000_000);
}

/// When every volume is full the server says so, and the error carries
/// the size that would not fit.
#[test]
fn out_of_volumes_is_explicit() {
    let timing = TapeTiming {
        capacity: DataSize::mb(10),
        ..TapeTiming::lto4()
    };
    let server = TsmServer::roadrunner(TapeFleet::new(1, 1, 2, timing, Registry::new()));
    let cluster = copra::cluster::FtaCluster::new(1);
    let pfs = copra::pfs::PfsBuilder::scratch("a", copra::simtime::Clock::new(), 2).build();
    let hsm = copra::hsm::Hsm::new(pfs.clone(), server, cluster, PlacementPolicy::Single);
    let mut cursor = SimInstant::EPOCH;
    let mut failed = None;
    for i in 0..4u64 {
        let ino = pfs
            .create_file(&format!("/f{i}"), 0, Content::synthetic(i, 8_000_000))
            .unwrap();
        match hsm.migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None) {
            Ok((_, t)) => cursor = t,
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    assert_eq!(failed, Some(HsmError::OutOfVolumes { needed: 8_000_000 }));
}

/// The catalog replica can be stale (export not yet run); PFTool falls
/// back to the live server DB and the restore still succeeds.
#[test]
fn stale_catalog_falls_back_to_server() {
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    sys.archive().mkdir_p("/arch").unwrap();
    let mut cursor = SimInstant::EPOCH;
    for i in 0..4u64 {
        let ino = sys
            .archive()
            .create_file(&format!("/arch/f{i}"), 0, Content::synthetic(i, 2_000_000))
            .unwrap();
        let (_, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }
    sys.clock().advance_to(cursor);
    // NOTE: deliberately NOT calling export_catalog() — the replica is
    // empty. retrieve_tree exports internally, so drive pfcp directly.
    assert_eq!(sys.catalog().len(), 0);
    let report = copra::pftool::pfcp(
        sys.archive_view(),
        "/arch",
        sys.scratch_view(),
        "/back",
        &config(),
        &[],
    );
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.tape_restores, 4);
}

/// Two campaigns hammering the system concurrently share the trunk: each
/// sees lower throughput than it would alone (contention is real), but
/// both complete with full integrity.
#[test]
fn concurrent_jobs_contend_for_the_trunk() {
    // Enough workers that one job nearly saturates the shared devices, so
    // a second concurrent job must slow both down.
    let wide = PftoolConfig {
        workers: 8,
        ..config()
    };
    let solo_secs = {
        let sys = ArchiveSystem::new(SystemConfig::test_small());
        let tree = mixed_tree(10, 500_000_000, 0.1, 4, 1);
        populate(sys.scratch(), "/a", &tree);
        let r = sys.archive_tree("/a", "/arch-a", &wide);
        assert!(r.stats.ok());
        r.stats.sim_seconds()
    };
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    let tree_a = mixed_tree(10, 500_000_000, 0.1, 4, 1);
    let tree_b = mixed_tree(10, 500_000_000, 0.1, 4, 2);
    populate(sys.scratch(), "/a", &tree_a);
    populate(sys.scratch(), "/b", &tree_b);
    // Run both jobs from the same simulated instant, one after the other:
    // job B reserves the devices around job A's reservations.
    let ra = sys.archive_tree("/a", "/arch-a", &wide);
    let rb = sys.archive_tree("/b", "/arch-b", &wide);
    assert!(ra.stats.ok() && rb.stats.ok());
    let contended = ra.stats.sim_seconds().max(rb.stats.sim_seconds());
    assert!(
        contended > solo_secs * 1.2,
        "two jobs ({contended:.1}s) should be noticeably slower than one ({solo_secs:.1}s)"
    );
    assert!(sys.verify_tree("/a", "/arch-a", &config()).identical());
    assert!(sys.verify_tree("/b", "/arch-b", &config()).identical());
}
