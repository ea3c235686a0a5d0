//! Replicated-archive end-to-end: mirrored placement across two
//! libraries, a whole-library outage mid-campaign, failover recalls, and
//! the re-silver repair afterwards (the PR-7 headline test).
//!
//! One fixed-seed campaign:
//!
//! 1. migrate four files under `Mirror{2}` while both libraries are up —
//!    every object gets a replica in the other library;
//! 2. library 1 drops offline (scheduled outage window); four more
//!    migrates degrade — primary only, counted and evented — instead of
//!    failing;
//! 3. during the outage **every** file recalls successfully: objects
//!    whose cheapest copy sat in the dead library fail over to the
//!    survivor, and every recalled byte matches what was archived;
//! 4. the library returns; one `resilver` pass restores the full replica
//!    count, and a subsequent scrub reports zero under-replicated
//!    objects.
//!
//! The whole campaign runs twice and must land on the identical simulated
//! instant with identical reports — determinism is the tier-1 invariant.

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, SystemConfig};
use copra::faults::FaultPlan;
use copra::hsm::{resilver, scrub, DataPath, PlacementPolicy};
use copra::journal::IntentKind;
use copra::simtime::SimDuration;
use copra::vfs::Content;

const SEED: u64 = 0xC075_2010;
const OUTAGE: SimDuration = SimDuration::from_secs(86_400);

/// Comparable fingerprint of everything the campaign did.
#[derive(Debug, Clone, PartialEq)]
struct CampaignOutcome {
    migrate_ends_ns: Vec<u64>,
    recall_ends_ns: Vec<u64>,
    degraded_migrates: u64,
    replica_writes: u64,
    library_outages: u64,
    resilver_repaired: Vec<u64>,
    resilver_replicas_written: u32,
    end_ns: u64,
}

fn run_campaign() -> CampaignOutcome {
    let sys = ArchiveSystem::new(SystemConfig::test_replicated(2));
    assert_eq!(sys.hsm().placement(), PlacementPolicy::Mirror { copies: 2 });
    sys.archive().mkdir_p("/data").unwrap();
    let mut originals = Vec::new();
    for i in 0..8u64 {
        let path = format!("/data/f{i}");
        let content = Content::synthetic(100 + i, 1_500_000 + i * 10_000);
        sys.archive()
            .create_file(&path, 0, content.clone())
            .unwrap();
        originals.push((path, content));
    }

    // Phase 1: four mirrored migrates, both libraries up.
    let mut cursor = sys.clock().now();
    let mut migrate_ends = Vec::new();
    let mut objids = Vec::new();
    for (path, _) in &originals[..4] {
        let ino = sys.archive().resolve(path).unwrap();
        let (objid, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
        migrate_ends.push(t.as_nanos());
        objids.push(objid);
        assert_eq!(
            sys.hsm().server().copies_of(objid).len(),
            1,
            "{path}: mirrored migrate must register one replica"
        );
    }

    // Phase 2: library 1 goes dark for a day, starting now.
    let outage_start = cursor;
    let outage_end = outage_start + OUTAGE;
    sys.arm_faults(FaultPlan::new(SEED).offline_library_until(1, outage_start, outage_end));
    for (path, _) in &originals[4..] {
        let ino = sys.archive().resolve(path).unwrap();
        let (objid, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
        migrate_ends.push(t.as_nanos());
        objids.push(objid);
        assert!(
            sys.hsm().server().copies_of(objid).is_empty(),
            "{path}: migrate during the outage must degrade, not block"
        );
    }

    // Phase 3: recall everything while the library is still down. Objects
    // whose cheapest replica lives in library 1 fail over transparently.
    let mut recall_ends = Vec::new();
    for (path, content) in &originals {
        let ino = sys.archive().resolve(path).unwrap();
        let t = sys
            .hsm()
            .recall_file(ino, NodeId(1), DataPath::LanFree, cursor, None)
            .unwrap_or_else(|e| panic!("{path}: recall during outage failed: {e}"));
        assert!(t < outage_end, "{path}: recall ran past the outage window");
        cursor = t;
        recall_ends.push(t.as_nanos());
        let got = sys.archive().read_resident(path).unwrap();
        assert_eq!(&got, content, "{path}: recalled bytes differ");
    }

    // Phase 4: the library returns; one re-silver restores every replica.
    cursor = cursor.max(outage_end);
    let repair = resilver(sys.hsm(), NodeId(0), DataPath::LanFree, cursor).unwrap();
    assert_eq!(repair.examined, 8);
    assert!(
        repair.is_complete(),
        "re-silver left objects under target: {repair:?}"
    );
    assert_eq!(repair.replicas_written, 4, "{repair:?}");
    for objid in &objids {
        assert_eq!(
            sys.hsm().server().copies_of(*objid).len(),
            1,
            "object {objid} not back at full replica count"
        );
    }
    sys.export_catalog();
    let report = scrub(sys.hsm(), sys.catalog(), repair.end).unwrap();
    assert!(
        report.under_replicated.is_empty(),
        "scrub after re-silver still sees under-replication: {report:?}"
    );
    assert!(report.diverged_replicas.is_empty(), "{report:?}");
    assert!(report.lost_stubs.is_empty(), "zero lost bytes: {report:?}");

    let m = sys.snapshot().metrics;
    CampaignOutcome {
        migrate_ends_ns: migrate_ends,
        recall_ends_ns: recall_ends,
        degraded_migrates: m.counter("replication.degraded_migrates"),
        replica_writes: m.counter("replication.replica_writes"),
        library_outages: m.counter("faults.library_outages"),
        resilver_repaired: repair.repaired.clone(),
        resilver_replicas_written: repair.replicas_written,
        end_ns: report.end.as_nanos(),
    }
}

#[test]
fn outage_campaign_fails_over_resilvers_and_is_deterministic() {
    let a = run_campaign();
    // Four migrates ran inside the outage window and degraded.
    assert_eq!(a.degraded_migrates, 4);
    // Four phase-1 replicas plus four re-silvered ones.
    assert_eq!(a.replica_writes, 8);
    // The outage was observed (and counted) exactly once.
    assert_eq!(a.library_outages, 1);
    assert_eq!(a.resilver_repaired.len(), 4);
    assert_eq!(a.resilver_replicas_written, 4);

    // Run two: identical simulated history, to the nanosecond.
    let b = run_campaign();
    assert_eq!(a, b, "same seed must reproduce the identical campaign");
}

/// A collocated migrate is a first-class mirrored migrate: the primary
/// lands on the group's volume, one replica lands in the other library,
/// and the migrate's journal intent is sealed.
#[test]
fn collocated_migrate_is_mirrored_and_journaled() {
    let sys = ArchiveSystem::new(SystemConfig::test_replicated(2));
    sys.archive().mkdir_p("/data").unwrap();
    let ino = sys
        .archive()
        .create_file("/data/g", 0, Content::synthetic(7, 1_500_000))
        .unwrap();
    let now = sys.clock().now();
    let (objid, _) = sys
        .hsm()
        .migrate_file(ino, NodeId(0), DataPath::LanFree, now, true, Some("proj"))
        .unwrap();
    let server = sys.hsm().server();
    let library_of = |id: u64| {
        let tape = server.get(id).unwrap().addr.tape;
        (tape, server.library().library_of_tape(tape).unwrap())
    };
    let (tape, lib) = library_of(objid);
    assert_eq!(server.collocation_volume("proj"), Some(tape));
    let copies = server.copies_of(objid);
    assert_eq!(copies.len(), 1, "one replica under Mirror{{2}}");
    assert_ne!(
        library_of(copies[0]).1,
        lib,
        "replica shares the primary's library"
    );
    let sealed = sys.journal().sealed_intents();
    assert!(
        sealed.iter().any(|r| matches!(
            r.kind,
            IntentKind::MigrateCommit { ino: i, objid: Some(o), ref replicas, .. }
                if i == ino.0 && o == objid && *replicas == copies
        )),
        "no sealed MigrateCommit for the collocated migrate: {sealed:?}"
    );
}
