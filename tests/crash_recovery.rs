//! The exhaustive crash-point sweep (the PR-5 headline test).
//!
//! A mixed migrate / collocated-migrate / sync-delete / trash-purge /
//! reclaim scenario is run
//! once with an *empty* armed fault plan to enumerate every crash point
//! the code path consults. Then, for every (site, occurrence) pair, a
//! fresh system runs the same scenario, crashes there — genuinely torn
//! state, simulated process death — recovers, and must satisfy all four
//! invariants:
//!
//! 1. **zero lost bytes** — every surviving file's data is retrievable
//!    (resident bytes on disk, or a live tape object of the right
//!    length), and no never-deleted file disappeared;
//! 2. **zero orphans** — reconcile finds no unreferenced DB objects;
//! 3. **zero dangling stubs** — no Migrated stub points at a vanished
//!    object (`scrub.lost_stubs` empty);
//! 4. **catalog ≡ server DB** — a re-export writes zero rows and the
//!    catalog indexes verify.
//!
//! The whole sweep runs twice with the same seed and must produce
//! identical outcomes, point for point.

use copra::cluster::NodeId;
use copra::core::{ArchiveSystem, SyncDeleteError, SyncDeleter, SystemConfig, Trashcan};
use copra::faults::{FaultPlan, FaultPlane};
use copra::hsm::{reconcile, DataPath, HsmError};
use copra::pfs::HsmState;
use copra::simtime::{SimDuration, SimInstant};
use copra::vfs::Content;
use std::collections::BTreeMap;
use std::sync::Arc;

const SEED: u64 = 2010;

/// (name, size): three files that survive the scenario, one sync-deleted,
/// one trashed-and-purged.
const FILES: [(&str, u64); 5] = [
    ("keep0", 2_000_000),
    ("keep1", 2_400_000),
    ("keep2", 2_800_000),
    ("del", 2_200_000),
    ("trash", 1_600_000),
];

/// A sixth survivor, migrated into a co-location group after the others.
const GROUPED: (&str, u64) = ("grouped", 1_800_000);

struct Scenario {
    sys: ArchiveSystem,
    plane: Arc<FaultPlane>,
    /// Original logical sizes, keyed by /data path.
    originals: BTreeMap<String, u64>,
    /// Site where the simulated process died, if the armed crash fired.
    crashed: Option<String>,
    /// Last simulated instant the scenario reached before dying/finishing.
    end: SimInstant,
}

/// Run the mixed scenario: migrate everything (punching holes; the last
/// file into a co-location group), trash and purge one file, sync-delete
/// another, then space-reclaim the volume the deletes hollowed out. Stops
/// dead at the armed crash point, if any.
fn run_scenario(config: SystemConfig, crash: Option<(&str, u32)>) -> Scenario {
    let sys = ArchiveSystem::new(config);
    sys.archive().mkdir_p("/data").unwrap();
    let mut originals = BTreeMap::new();
    for (i, (name, size)) in FILES.iter().chain([&GROUPED]).enumerate() {
        let path = format!("/data/{name}");
        sys.archive()
            .create_file(&path, 0, Content::synthetic(10 + i as u64, *size))
            .unwrap();
        originals.insert(path, *size);
    }
    let plan = match crash {
        Some((site, occ)) => FaultPlan::new(SEED).crash_at(site, occ),
        None => FaultPlan::new(SEED),
    };
    let plane = sys.arm_faults(plan);
    let mut scen = Scenario {
        sys: sys.clone(),
        plane,
        originals,
        crashed: None,
        end: sys.clock().now(),
    };

    // Phase A: migrate all six files to tape, punching the disk copies;
    // the sixth goes to its co-location group's volume.
    let steps = FILES.iter().map(|(name, _)| (*name, None));
    for (name, group) in steps.chain([(GROUPED.0, Some("project"))]) {
        let ino = sys.archive().resolve(&format!("/data/{name}")).unwrap();
        match sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, scen.end, true, group)
        {
            Ok((_, t)) => scen.end = t,
            Err(HsmError::Crashed { site }) => {
                scen.crashed = Some(site);
                return scen;
            }
            Err(e) => panic!("unexpected migrate failure: {e}"),
        }
    }
    sys.export_catalog();
    // Remember which volume holds /data/del so phase D can reclaim it.
    let del_ino = sys.archive().resolve("/data/del").unwrap();
    let del_objid = sys.archive().hsm_objid(del_ino).unwrap().unwrap();
    let del_tape = sys.hsm().server().get(del_objid).unwrap().addr.tape;

    let deleter = SyncDeleter::new(sys.hsm().clone(), Arc::clone(sys.catalog()));
    let trash = Trashcan::new(sys.fuse().clone());

    // Phase B: user-delete /data/trash, then purge the trashcan.
    trash.delete("/data/trash").unwrap();
    let cands = trash.purge_candidates(SimDuration::from_secs(0), 0);
    assert_eq!(cands.len(), 1, "exactly the trashed file is purgeable");
    let purge = deleter.purge(&cands, scen.end);
    scen.end = purge.end.max(scen.end);
    if let Some(site) = purge.aborted {
        scen.crashed = Some(site);
        return scen;
    }
    assert!(purge.errors.is_empty(), "{:?}", purge.errors);

    // Phase C: administratively sync-delete /data/del.
    match deleter.delete_file("/data/del", scen.end) {
        Ok(r) => scen.end = r.end,
        Err(SyncDeleteError::Crashed { site }) => {
            scen.crashed = Some(site);
            return scen;
        }
        Err(e) => panic!("unexpected delete failure: {e}"),
    }

    // Phase D: reclaim the volume the deletes hollowed out.
    match sys.hsm().reclaim_volume(del_tape, scen.end) {
        Ok(r) => scen.end = r.end.max(scen.end),
        Err(HsmError::Crashed { site }) => {
            scen.crashed = Some(site);
            return scen;
        }
        Err(e) => panic!("unexpected reclaim failure: {e}"),
    }
    scen
}

/// Flattened, comparable record of what one crash-and-recover run did.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    site: String,
    occurrence: u32,
    replayed: usize,
    rolled_back: usize,
    forward_completed: usize,
    orphans_deleted: usize,
    stubs_demoted: usize,
    tape_records_dropped: usize,
    catalog_rows_fixed: u64,
    under_replicated: usize,
    diverged_replicas: usize,
    end_ns: u64,
    survivors: Vec<String>,
}

/// Recover and assert the four invariants; returns the comparable outcome.
fn recover_and_check(scen: &Scenario, site: &str, occurrence: u32) -> Outcome {
    let sys = &scen.sys;
    let ctx = format!("crash at {site}#{occurrence}");
    let recovery = sys
        .recover(scen.end)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));

    // Invariant 3: zero dangling stubs — no Migrated stub lost its object.
    assert!(
        recovery.scrub.lost_stubs.is_empty(),
        "{ctx}: lost data behind stubs {:?}",
        recovery.scrub.lost_stubs
    );

    // Replication invariant: recovery leaves no half-replicated object —
    // an open intent's whole replica group rolls back together, a sealed
    // one replays fully, so the scrub replica audit finds nothing. (Both
    // lists are trivially empty under Single placement.)
    assert!(
        recovery.scrub.under_replicated.is_empty(),
        "{ctx}: half-replicated objects {:?}",
        recovery.scrub.under_replicated
    );
    assert!(
        recovery.scrub.diverged_replicas.is_empty(),
        "{ctx}: diverged replicas {:?}",
        recovery.scrub.diverged_replicas
    );

    // Invariant 1: zero lost bytes. Every file left anywhere in the
    // namespace (including trash) must have its full data retrievable.
    let mut survivors = Vec::new();
    for e in sys.archive().walk("/").unwrap() {
        if !e.attr.is_file() {
            continue;
        }
        match sys.archive().hsm_state(e.attr.ino).unwrap() {
            HsmState::Resident | HsmState::Premigrated => {
                let got = sys.archive().read_resident(&e.path).unwrap().len();
                assert_eq!(got, e.attr.size, "{ctx}: {} truncated on disk", e.path);
            }
            HsmState::Migrated => {
                let objid = sys
                    .archive()
                    .hsm_objid(e.attr.ino)
                    .unwrap()
                    .unwrap_or_else(|| panic!("{ctx}: {} stub has no objid", e.path));
                let obj =
                    sys.hsm().server().get(objid).unwrap_or_else(|_| {
                        panic!("{ctx}: {} points at dead object {objid}", e.path)
                    });
                assert_eq!(
                    obj.len, e.attr.size,
                    "{ctx}: {} tape copy truncated",
                    e.path
                );
            }
        }
        // A file that was never a delete target must still be intact.
        if let Some(&size) = scen.originals.get(&e.path) {
            assert_eq!(e.attr.size, size, "{ctx}: {} changed size", e.path);
        }
        survivors.push(e.path.clone());
    }
    for keep in ["/data/keep0", "/data/keep1", "/data/keep2", "/data/grouped"] {
        assert!(
            survivors.iter().any(|p| p == keep),
            "{ctx}: never-deleted file {keep} vanished (survivors: {survivors:?})"
        );
    }

    // Invariant 2: zero orphans.
    let rec = reconcile(sys.archive(), sys.hsm().server(), recovery.end, false).unwrap();
    assert!(rec.orphans.is_empty(), "{ctx}: orphans {:?}", rec.orphans);

    // Invariant 4: catalog ≡ server DB.
    assert_eq!(
        sys.export_catalog(),
        0,
        "{ctx}: catalog drifted from server DB"
    );
    sys.catalog()
        .verify_indexes()
        .unwrap_or_else(|e| panic!("{ctx}: catalog indexes corrupt: {e}"));

    // The journal is drained and a second recovery pass finds nothing.
    assert!(sys.journal().is_empty(), "{ctx}: journal not drained");
    let again = sys.recover(recovery.end).unwrap();
    assert!(
        again.is_clean(),
        "{ctx}: second recovery not clean: {again:?}"
    );

    Outcome {
        site: site.to_string(),
        occurrence,
        replayed: recovery.replayed,
        rolled_back: recovery.rolled_back,
        forward_completed: recovery.forward_completed,
        orphans_deleted: recovery.scrub.orphans_deleted.len(),
        stubs_demoted: recovery.scrub.stubs_demoted.len(),
        tape_records_dropped: recovery.scrub.tape_records_dropped,
        catalog_rows_fixed: recovery.scrub.catalog_rows_fixed,
        under_replicated: recovery.scrub.under_replicated.len(),
        diverged_replicas: recovery.scrub.diverged_replicas.len(),
        end_ns: recovery.end.as_nanos(),
        survivors,
    }
}

fn sweep_config(mirrored: bool) -> SystemConfig {
    if mirrored {
        SystemConfig::test_replicated(2)
    } else {
        SystemConfig::test_small()
    }
}

/// One full sweep: enumerate, then crash-and-recover at every point.
fn sweep(mirrored: bool) -> (Vec<(String, u32)>, Vec<Outcome>) {
    // Enumeration run: empty plan, nothing fires, every consult is logged.
    let scen = run_scenario(sweep_config(mirrored), None);
    assert!(scen.crashed.is_none());
    let mut points: Vec<(String, u32)> = Vec::new();
    for p in scen.plane.consulted_crash_points() {
        if !points.contains(&p) {
            points.push(p);
        }
    }
    // The collocated migrate (the sixth) is swept like any other.
    for site in [
        "migrate.begin",
        "agent.store.after_write",
        "migrate.after_seal",
    ] {
        assert!(
            points.contains(&(site.to_string(), 6)),
            "collocated migrate never consulted {site}: {points:?}"
        );
    }
    // The fault-free run itself must recover clean (replay-only).
    let clean = recover_and_check(&scen, "none", 0);
    assert_eq!(clean.rolled_back, 0);
    assert_eq!(clean.forward_completed, 0);
    assert_eq!(clean.orphans_deleted, 0);
    assert_eq!(clean.stubs_demoted, 0);
    assert_eq!(clean.tape_records_dropped, 0);

    let mut outcomes = Vec::new();
    for (site, occ) in &points {
        let scen = run_scenario(sweep_config(mirrored), Some((site, *occ)));
        assert_eq!(
            scen.crashed.as_deref(),
            Some(site.as_str()),
            "armed crash {site}#{occ} did not fire (or fired elsewhere)"
        );
        outcomes.push(recover_and_check(&scen, site, *occ));
    }
    (points, outcomes)
}

#[test]
fn every_crash_point_recovers_with_all_invariants() {
    let (points, outcomes) = sweep(false);
    // Broad coverage: migrate, store, delete, purge and reclaim sites all
    // consulted, many more than once.
    let sites: std::collections::BTreeSet<&str> = points.iter().map(|(s, _)| s.as_str()).collect();
    for expected in [
        "migrate.begin",
        "agent.store.after_write",
        "migrate.after_store",
        "migrate.after_mark",
        "migrate.after_seal",
        "syncdel.begin",
        "syncdel.after_unlink",
        "syncdel.after_obj_delete",
        "server.delete.after_db_remove",
        "reclaim.after_copy",
        "reclaim.after_rebase",
    ] {
        assert!(
            sites.contains(expected),
            "site {expected} never consulted: {points:?}"
        );
    }
    assert!(
        points.len() >= 20,
        "expected a dense sweep, got only {} points",
        points.len()
    );
    assert_eq!(points.len(), outcomes.len());
}

#[test]
fn sweep_is_deterministic_across_runs() {
    let (points_a, a) = sweep(false);
    let (points_b, b) = sweep(false);
    assert_eq!(points_a, points_b, "enumeration must be stable");
    assert_eq!(a, b, "same seed must reproduce identical recovery outcomes");
}

/// The same sweep under two-way mirrored placement across two libraries:
/// every crash site — now including the replica-write site — recovers
/// with the original four invariants plus zero half-replicated objects,
/// and the whole sweep is bit-deterministic.
#[test]
fn mirrored_sweep_recovers_with_no_half_replicated_objects() {
    let (points, outcomes) = sweep(true);
    let sites: std::collections::BTreeSet<&str> = points.iter().map(|(s, _)| s.as_str()).collect();
    assert!(
        sites.contains("migrate.replica.after_store"),
        "replica-write crash site never consulted: {points:?}"
    );
    assert_eq!(points.len(), outcomes.len());
    // Recovery never leaves a partially-replicated group behind
    // (recover_and_check already asserted per-point; this documents it).
    assert!(outcomes.iter().all(|o| o.under_replicated == 0));
    assert!(outcomes.iter().all(|o| o.diverged_replicas == 0));

    let (points_b, outcomes_b) = sweep(true);
    assert_eq!(points, points_b, "mirrored enumeration must be stable");
    assert_eq!(outcomes, outcomes_b, "mirrored sweep must be deterministic");
}

/// Recovery paints its own span tree: a crash mid-migrate followed by
/// `recover()` yields a `recover` root whose children are the per-intent
/// replay/rollback/forward spans plus the trailing scrub pass.
#[test]
fn traced_crash_recovery_paints_recover_spans() {
    let tracer = copra::trace::Tracer::armed(SEED);
    let sys = ArchiveSystem::new(SystemConfig::test_small().with_tracer(tracer.clone()));
    sys.archive().mkdir_p("/data").unwrap();
    sys.archive()
        .create_file("/data/a", 0, Content::synthetic(1, 2_000_000))
        .unwrap();
    sys.archive()
        .create_file("/data/b", 0, Content::synthetic(2, 2_400_000))
        .unwrap();
    // The first migrate dies between its seal and its punch (a sealed
    // intent, replayed at recovery); the second consult of
    // migrate.after_store dies too, leaving an open intent the recovery
    // pass must resolve.
    sys.arm_faults(
        FaultPlan::new(SEED)
            .crash_at("migrate.after_seal", 1)
            .crash_at("migrate.after_store", 2),
    );
    let end = sys.clock().now();
    let ino = sys.archive().resolve("/data/a").unwrap();
    match sys
        .hsm()
        .migrate_file(ino, NodeId(0), DataPath::LanFree, end, true, None)
    {
        Err(HsmError::Crashed { site }) => assert_eq!(site, "migrate.after_seal"),
        other => panic!("expected the armed crash, got {other:?}"),
    }
    let ino = sys.archive().resolve("/data/b").unwrap();
    match sys
        .hsm()
        .migrate_file(ino, NodeId(0), DataPath::LanFree, end, true, None)
    {
        Err(HsmError::Crashed { site }) => assert_eq!(site, "migrate.after_store"),
        other => panic!("expected the armed crash, got {other:?}"),
    }

    let recovery = sys.recover(end).unwrap();
    assert!(
        recovery.replayed + recovery.rolled_back + recovery.forward_completed > 0,
        "{recovery:?}"
    );

    let report = tracer.report().expect("armed tracer yields a report");
    let root = report.find("recover").expect("recover root span recorded");
    assert!(root.parent.is_none(), "recover is a root span");
    let kids: Vec<&str> = report
        .spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .map(|s| s.name)
        .collect();
    assert!(
        kids.contains(&"recover.replay"),
        "sealed first migrate must replay under the root: {kids:?}"
    );
    assert!(
        kids.iter()
            .any(|n| matches!(*n, "recover.rollback" | "recover.forward")),
        "open intent must roll back or complete forward: {kids:?}"
    );
    assert!(kids.contains(&"recover.scrub"), "{kids:?}");
    // The first migrate's own tree is in the same report, with its
    // intent sealed under it.
    assert!(report.find("hsm.migrate").is_some());
    assert!(report.find("journal.intent.migrate-commit").is_some());
}

#[test]
fn fault_free_baseline_snapshots_zero_recovery_counters() {
    // No crash, no recover() call: the journal.recovered_* counters are
    // never registered, so a snapshot reports zero for all of them.
    let scen = run_scenario(SystemConfig::test_small(), None);
    let m = scen.sys.snapshot().metrics;
    assert_eq!(m.counter("journal.recovered_replayed"), 0);
    assert_eq!(m.counter("journal.recovered_rolled_back"), 0);
    assert_eq!(m.counter("journal.recovered_forward"), 0);
    assert_eq!(m.counter("scrub.passes"), 0);
    assert_eq!(m.counter("faults.crash_points"), 0);
}
