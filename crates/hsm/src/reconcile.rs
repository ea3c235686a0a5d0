//! Reconciliation — the classic orphan cleanup the integration avoids.
//!
//! When a migrated file is deleted from the file system, only its metadata
//! dies; the tape object is orphaned. Stock TSM reconciliation walks the
//! directory tree and compares file by file against the server DB — §4.2.6
//! calls the overhead "unacceptable" for archives with 10⁷–10⁸ files. We
//! keep it (a) as the correctness baseline the synchronous deleter is
//! checked against and (b) as the T-SYNCDEL benchmark baseline.

use crate::agent::DataPath;
use crate::error::HsmResult;
use crate::hsm::Hsm;
use crate::object::ObjectKind;
use crate::server::TsmServer;
use copra_cluster::NodeId;
use copra_metadb::TsmCatalog;
use copra_obs::EventKind;
use copra_pfs::{HsmState, Pfs};
use copra_simtime::SimInstant;
use copra_vfs::Ino;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};

/// What a reconcile pass found.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReconcileReport {
    /// Files examined on the file system.
    pub fs_files: usize,
    /// Objects examined in the server DB.
    pub db_objects: usize,
    /// Object ids present in the DB but referenced by no live file.
    pub orphans: Vec<u64>,
    /// Simulated completion time of the pass.
    pub end: SimInstant,
}

/// Tree-walk reconciliation: compare every file-system file against the
/// server DB, then flag DB file-objects nothing references. Charges one
/// server metadata transaction per compared item — the cost the paper
/// complains about. When `fix` is set, orphans are deleted from the server
/// (and their tape records dropped).
pub fn reconcile(
    pfs: &Pfs,
    server: &TsmServer,
    ready: SimInstant,
    fix: bool,
) -> HsmResult<ReconcileReport> {
    let mut cursor = ready;
    // Phase 1: walk the tree, collecting every object id a live file still
    // references (current copies and orphaned-by-overwrite markers do NOT
    // count — an overwrite makes the old object garbage).
    let mut referenced: FxHashSet<u64> = FxHashSet::default();
    let entries = pfs.walk("/")?;
    let mut fs_files = 0usize;
    for e in &entries {
        if !e.attr.is_file() {
            continue;
        }
        fs_files += 1;
        cursor = server.meta_op(cursor); // per-file compare transaction
        if let Some(objid) = e.attr.region.objid {
            referenced.insert(objid);
        }
    }
    // Phase 2: sweep the DB for file-objects nothing references. Registered
    // tape copies are exempt: no file references a replica directly — it
    // lives and dies with its primary (deleting an orphaned primary sweeps
    // its copy group), and the scrub replica audit handles dead replicas.
    let copy_ids: FxHashSet<u64> = server.all_copy_objids().into_iter().collect();
    let mut orphans = Vec::new();
    let objects = server.objects();
    let db_objects = objects.len();
    for obj in objects {
        cursor = server.meta_op(cursor);
        let is_file_object = obj.fs_ino != 0;
        if is_file_object && !copy_ids.contains(&obj.objid) && !referenced.contains(&obj.objid) {
            orphans.push(obj.objid);
        }
    }
    if fix {
        for &objid in &orphans {
            cursor = server.delete_object(objid, cursor)?;
        }
    }
    Ok(ReconcileReport {
        fs_files,
        db_objects,
        orphans,
        end: cursor,
    })
}

/// What a self-healing scrub pass repaired.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScrubReport {
    /// DB file-objects nothing references, deleted (tape records too).
    pub orphans_deleted: Vec<u64>,
    /// Premigrated stubs whose tape object vanished, demoted to resident
    /// (their disk copy is intact — nothing is lost).
    pub stubs_demoted: Vec<u64>,
    /// Migrated stubs whose tape object vanished: the data is gone. The
    /// crash-sweep invariant is that this stays empty.
    pub lost_stubs: Vec<u64>,
    /// Live tape records dropped because the server DB doesn't know them
    /// (or knows the object at a different address).
    pub tape_records_dropped: usize,
    /// Catalog-replica rows the re-export had to write or prune.
    pub catalog_rows_fixed: u64,
    /// Primary objects with fewer live replicas than the fleet's
    /// replica target demands (only populated when the target is > 1).
    /// Re-silvering — not scrub — is the repair.
    #[serde(default)]
    pub under_replicated: Vec<u64>,
    /// Registered copy objects whose tape record is gone, deleted, or
    /// damaged: the replica diverged from its registration and no longer
    /// protects the primary.
    #[serde(default)]
    pub diverged_replicas: Vec<u64>,
    /// Simulated completion time.
    pub end: SimInstant,
}

impl ScrubReport {
    /// True when the pass found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.orphans_deleted.is_empty()
            && self.stubs_demoted.is_empty()
            && self.lost_stubs.is_empty()
            && self.tape_records_dropped == 0
            && self.catalog_rows_fixed == 0
            && self.under_replicated.is_empty()
            && self.diverged_replicas.is_empty()
    }
}

/// A registered replica still protects its primary only while its tape
/// record exists and is neither deleted nor damaged. An offline library
/// does NOT make its replicas diverged — the record metadata survives the
/// outage and the bytes come back with the library.
fn replica_readable(server: &TsmServer, objid: u64) -> bool {
    let Ok(obj) = server.get(objid) else {
        return false;
    };
    server
        .library()
        .with_cartridge(obj.addr.tape, |c| {
            c.record(obj.addr.seq)
                .map(|r| !r.is_deleted() && !r.damaged)
                .unwrap_or(false)
        })
        .unwrap_or(false)
}

/// Self-healing scrub: reconcile-with-fix plus the crash-damage repairs
/// reconcile can't see. Four phases:
///
/// 1. orphaned DB file-objects (fix-mode [`reconcile`]) — deleted;
/// 2. dangling stubs (file references an objid the server forgot):
///    premigrated stubs are demoted to resident, migrated stubs are
///    reported as lost;
/// 3. tape records diverging from the DB (record with no DB object, or a
///    DB object now living at a different address) — dropped;
/// 4. catalog replica re-exported and its indexes verified;
/// 5. (replicated fleets only, i.e. replica target > 1) replica audit:
///    every simple primary is checked against the target; primaries short
///    of live replicas are reported `under_replicated`, registered copies
///    whose tape record died are reported `diverged_replicas`. Scrub only
///    *reports* these — [`resilver`] is the repair.
///
/// Emits `scrub.*` counters and `Recovery` events; panics never, errors
/// only on infrastructure failure.
pub fn scrub(hsm: &Hsm, catalog: &TsmCatalog, ready: SimInstant) -> HsmResult<ScrubReport> {
    let (pfs, server) = (hsm.pfs(), hsm.server());
    let obs = server.obs().clone();
    let mut report = ScrubReport::default();

    // Phase 1: orphaned DB objects.
    let rec = reconcile(pfs, server, ready, true)?;
    let mut cursor = rec.end;
    report.orphans_deleted = rec.orphans;
    for &objid in &report.orphans_deleted {
        obs.event(
            cursor,
            EventKind::Recovery {
                what: "scrub-orphan".into(),
                detail: format!("deleted orphaned object {objid}"),
            },
        );
    }

    // Phase 2: dangling stubs.
    for e in pfs.walk("/")? {
        if !e.attr.is_file() {
            continue;
        }
        let Some(objid) = e.attr.region.objid else {
            continue;
        };
        if server.contains(objid) {
            continue;
        }
        cursor = server.meta_op(cursor);
        match e.attr.region.state {
            HsmState::Premigrated => {
                pfs.mark_resident(e.attr.ino)?;
                report.stubs_demoted.push(objid);
                obs.event(
                    cursor,
                    EventKind::Recovery {
                        what: "scrub-stub".into(),
                        detail: format!("{}: demoted to resident (object {objid} gone)", e.path),
                    },
                );
            }
            HsmState::Migrated => {
                report.lost_stubs.push(objid);
                obs.event(
                    cursor,
                    EventKind::Recovery {
                        what: "scrub-lost".into(),
                        detail: format!("{}: migrated stub lost object {objid}", e.path),
                    },
                );
            }
            HsmState::Resident => {}
        }
    }

    // Phase 3: tape records the DB disowns.
    let lib = server.library();
    for (addr, objid, _len) in lib.live_objects() {
        let keep = server
            .get(objid)
            .map(|obj| obj.addr == addr)
            .unwrap_or(false);
        if keep {
            continue;
        }
        cursor = server.meta_op(cursor);
        lib.delete_object(addr)?;
        report.tape_records_dropped += 1;
        obs.event(
            cursor,
            EventKind::Recovery {
                what: "scrub-record".into(),
                detail: format!("dropped tape record {addr:?} (object {objid} disowned)"),
            },
        );
    }

    // Phase 4: catalog replica convergence + index verification.
    let gen_before = catalog.generation();
    server.export(catalog);
    report.catalog_rows_fixed = catalog.generation() - gen_before;
    catalog
        .verify_indexes()
        .expect("catalog indexes consistent after scrub");

    // Phase 5: replica audit. Gated on the placement's replica target so
    // unreplicated deployments keep the exact legacy scrub behaviour
    // (reports, counters, and sim-time charges all unchanged).
    let target = hsm.placement().total_copies();
    if target > 1 {
        let copy_ids: FxHashSet<u64> = server.all_copy_objids().into_iter().collect();
        for obj in server.objects() {
            if obj.fs_ino == 0
                || copy_ids.contains(&obj.objid)
                || !matches!(obj.kind, ObjectKind::Simple)
            {
                continue;
            }
            cursor = server.meta_op(cursor);
            let mut live = 0u32;
            for copy in server.copies_of(obj.objid) {
                if replica_readable(server, copy) {
                    live += 1;
                } else {
                    report.diverged_replicas.push(copy);
                    obs.event(
                        cursor,
                        EventKind::Recovery {
                            what: "scrub-replica".into(),
                            detail: format!(
                                "{}: replica {copy} of object {} diverged",
                                obj.path, obj.objid
                            ),
                        },
                    );
                }
            }
            if 1 + live < target {
                report.under_replicated.push(obj.objid);
                obs.event(
                    cursor,
                    EventKind::Recovery {
                        what: "scrub-replica".into(),
                        detail: format!(
                            "{}: object {} has {} of {target} copies",
                            obj.path,
                            obj.objid,
                            1 + live
                        ),
                    },
                );
            }
        }
    }

    obs.counter("scrub.passes").inc();
    obs.counter("scrub.orphans_deleted")
        .add(report.orphans_deleted.len() as u64);
    obs.counter("scrub.stubs_demoted")
        .add(report.stubs_demoted.len() as u64);
    obs.counter("scrub.lost_stubs")
        .add(report.lost_stubs.len() as u64);
    obs.counter("scrub.tape_records_dropped")
        .add(report.tape_records_dropped as u64);
    obs.counter("scrub.catalog_rows_fixed")
        .add(report.catalog_rows_fixed);
    // Replica-audit counters are registered only when the audit actually
    // found work, so unreplicated (and healthy replicated) snapshots stay
    // byte-identical to the legacy counter set.
    if !report.under_replicated.is_empty() {
        obs.counter("scrub.under_replicated")
            .add(report.under_replicated.len() as u64);
    }
    if !report.diverged_replicas.is_empty() {
        obs.counter("scrub.diverged_replicas")
            .add(report.diverged_replicas.len() as u64);
    }

    report.end = cursor;
    Ok(report)
}

/// What a re-silver pass did.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResilverReport {
    /// Primary objects examined against the replica target.
    pub examined: usize,
    /// Primaries that got at least one new replica written.
    pub repaired: Vec<u64>,
    /// Total replicas written across all repairs.
    pub replicas_written: u32,
    /// Primaries still short of the target after the pass (source
    /// unreadable, or no library had room for the replica).
    pub still_under: Vec<u64>,
    /// Simulated completion time.
    pub end: SimInstant,
}

impl ResilverReport {
    /// True when every examined primary now meets the replica target.
    pub fn is_complete(&self) -> bool {
        self.still_under.is_empty()
    }
}

/// Re-silver: restore every under-replicated primary to the fleet's
/// replica target — the repair arm of scrub's replica audit, and the
/// recovery step after a library outage degraded migrates.
///
/// For each simple primary short of live replicas the pass recalls the
/// bytes through the cost-routed agent fetch (so a healthy replica is the
/// source even when the primary's library is the one that failed) and
/// fans them back out via the placement walk. Failures degrade, never
/// abort: an unreadable source or a full fleet lands the primary in
/// `still_under` and the pass moves on. No journal intent is written —
/// re-silvering is idempotent, and a crash mid-pass just leaves fewer
/// replicas for the next pass to finish.
///
/// Emits `hsm.resilver` spans, `replication.resilver_passes` /
/// `replication.resilvered` counters, and `Recovery` events per repair.
/// No-op (zero cost, zero spans) when the replica target is 1.
pub fn resilver(
    hsm: &Hsm,
    node: NodeId,
    data_path: DataPath,
    ready: SimInstant,
) -> HsmResult<ResilverReport> {
    let server = hsm.server();
    let target = hsm.placement().total_copies();
    let mut report = ResilverReport {
        end: ready,
        ..Default::default()
    };
    if target <= 1 {
        return Ok(report);
    }
    let obs = server.obs().clone();
    let tracer = hsm.tracer();
    let guard = tracer.span(None, "hsm.resilver", 0, ready);
    let gctx = guard.as_ref().map(|g| g.ctx());
    let copy_ids: FxHashSet<u64> = server.all_copy_objids().into_iter().collect();
    let mut cursor = ready;
    for obj in server.objects() {
        if obj.fs_ino == 0
            || copy_ids.contains(&obj.objid)
            || !matches!(obj.kind, ObjectKind::Simple)
        {
            continue;
        }
        cursor = server.meta_op(cursor);
        report.examined += 1;
        let mut live = 0u32;
        for copy in server.copies_of(obj.objid) {
            if replica_readable(server, copy) {
                live += 1;
            } else {
                // Dead replica: drop its remnants and its registration so
                // the placement walk can refill the slot and scrub stops
                // flagging the divergence.
                if server.contains(copy) {
                    match server.delete_object(copy, cursor) {
                        Ok(t) => cursor = t,
                        // Record already gone — drop the DB row alone.
                        Err(_) => {
                            server.forget_object(copy);
                        }
                    }
                }
                server.deregister_copy(obj.objid, copy);
            }
        }
        let have = 1 + live;
        if have >= target {
            continue;
        }
        let want = target - have;
        let w0 = tracer.wall_now_ns();
        let t0 = cursor;
        // Cost-routed fetch: reads the cheapest *live* replica, which is
        // exactly what we need when the primary's library is the sick one.
        let content = match hsm.agent(node).fetch(obj.objid, cursor, data_path) {
            Ok((content, t)) => {
                cursor = t;
                content
            }
            Err(_) => {
                report.still_under.push(obj.objid);
                continue;
            }
        };
        let (written, t) = hsm.write_replicas(
            Ino(obj.fs_ino),
            &obj.path,
            &content,
            obj.objid,
            node,
            data_path,
            cursor,
            want,
            None,
            false,
        )?;
        cursor = t;
        tracer.record_closed(gctx, "hsm.resilver.repair", obj.objid, t0, cursor, w0);
        if written > 0 {
            report.repaired.push(obj.objid);
            report.replicas_written += written;
            obs.event(
                cursor,
                EventKind::Recovery {
                    what: "resilver".into(),
                    detail: format!(
                        "{}: wrote {written} replica(s) for object {}",
                        obj.path, obj.objid
                    ),
                },
            );
        }
        if have + written < target {
            report.still_under.push(obj.objid);
        }
    }
    if let Some(g) = guard {
        g.finish(cursor);
    }
    obs.counter("replication.resilver_passes").inc();
    obs.counter("replication.resilvered")
        .add(report.replicas_written as u64);
    report.end = cursor;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hsm::{Hsm, PlacementPolicy};
    use copra_cluster::FtaCluster;
    use copra_obs::Registry;
    use copra_pfs::{PfsBuilder, PoolConfig};
    use copra_simtime::{Clock, DataSize};
    use copra_tape::{LibraryId, TapeFleet, TapeTiming};
    use copra_vfs::Content;

    fn setup() -> Hsm {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .build();
        let cluster = FtaCluster::new(2);
        let server =
            TsmServer::roadrunner(TapeFleet::new(1, 2, 8, TapeTiming::lto4(), Registry::new()));
        Hsm::new(pfs, server, cluster, PlacementPolicy::Single)
    }

    fn setup_mirrored(libraries: usize) -> Hsm {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .build();
        let cluster = FtaCluster::new(2);
        let fleet = TapeFleet::new(libraries, 2, 8, TapeTiming::lto4(), Registry::new());
        let server = TsmServer::roadrunner(fleet);
        Hsm::new(pfs, server, cluster, PlacementPolicy::Mirror { copies: 2 })
    }

    #[test]
    fn clean_system_reconciles_clean() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        for i in 0..5u64 {
            let ino = pfs
                .create_file(&format!("/f{i}"), 0, Content::synthetic(i, 1 << 20))
                .unwrap();
            let (_, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
        }
        let report = reconcile(&pfs, hsm.server(), cursor, false).unwrap();
        assert_eq!(report.fs_files, 5);
        assert_eq!(report.db_objects, 5);
        assert!(report.orphans.is_empty());
        assert!(report.end > cursor, "reconcile costs simulated time");
    }

    #[test]
    fn unlink_orphans_are_found_and_fixed() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        let mut objids = Vec::new();
        for i in 0..4u64 {
            let ino = pfs
                .create_file(&format!("/f{i}"), 0, Content::synthetic(i, 1 << 20))
                .unwrap();
            let (objid, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
            objids.push(objid);
        }
        // Delete two files from the FS only — classic orphan creation.
        pfs.unlink("/f1").unwrap();
        pfs.unlink("/f3").unwrap();
        let report = reconcile(&pfs, hsm.server(), cursor, false).unwrap();
        let mut expect = vec![objids[1], objids[3]];
        expect.sort_unstable();
        let mut got = report.orphans.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
        // fix=true removes them from the server and the tape
        let report = reconcile(&pfs, hsm.server(), report.end, true).unwrap();
        assert_eq!(report.orphans.len(), 2);
        assert_eq!(hsm.server().db_len(), 2);
        let report = reconcile(&pfs, hsm.server(), report.end, false).unwrap();
        assert!(report.orphans.is_empty());
    }

    #[test]
    fn overwrite_orphans_are_found() {
        // §6.3: the synchronous deleter can't see truncate/overwrite;
        // reconcile must.
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 1 << 20))
            .unwrap();
        let (objid, t) = hsm
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                false,
                None,
            )
            .unwrap();
        // Overwrite while premigrated: the old tape copy becomes stale.
        pfs.write_at(ino, 0, Content::literal(&b"fresh data"[..]))
            .unwrap();
        let report = reconcile(&pfs, hsm.server(), t, false).unwrap();
        assert_eq!(report.orphans, vec![objid]);
    }

    #[test]
    fn scrub_heals_orphans_dangling_stubs_and_disowned_records() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let catalog = TsmCatalog::new();
        let mut cursor = SimInstant::EPOCH;
        let mut pairs = Vec::new();
        for i in 0..3u64 {
            let ino = pfs
                .create_file(&format!("/f{i}"), 0, Content::synthetic(i, 1 << 20))
                .unwrap();
            let (objid, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, false, None)
                .unwrap();
            cursor = t;
            pairs.push((ino, objid));
        }
        hsm.server().export(&catalog);

        // Torn state 1: orphan — file unlinked, DB object survives.
        pfs.unlink("/f0").unwrap();
        // Torn state 2: dangling premigrated stub + disowned tape record —
        // the server forgot the object but the stub and record remain.
        hsm.server().forget_object(pairs[1].1).unwrap();

        let report = scrub(&hsm, &catalog, cursor).unwrap();
        assert_eq!(report.orphans_deleted, vec![pairs[0].1]);
        assert_eq!(report.stubs_demoted, vec![pairs[1].1]);
        assert!(report.lost_stubs.is_empty());
        assert_eq!(report.tape_records_dropped, 1);
        assert!(report.catalog_rows_fixed >= 2, "{report:?}");
        assert_eq!(pfs.hsm_state(pairs[1].0).unwrap(), HsmState::Resident);
        // The catalog now mirrors the server DB exactly.
        assert_eq!(catalog.len(), hsm.server().db_len());
        assert_eq!(catalog.verify_indexes(), Ok(()));
        // A second pass finds nothing.
        let again = scrub(&hsm, &catalog, report.end).unwrap();
        assert!(again.is_clean(), "{again:?}");
        let snap = hsm.server().obs().snapshot();
        assert_eq!(snap.counter("scrub.passes"), 2);
        assert_eq!(snap.counter("scrub.orphans_deleted"), 1);
    }

    #[test]
    fn reconcile_cost_scales_with_tree_size() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        for i in 0..50u64 {
            pfs.create_file(&format!("/f{i}"), 0, Content::synthetic(i, 10))
                .unwrap();
        }
        let r = reconcile(&pfs, hsm.server(), SimInstant::EPOCH, false).unwrap();
        // 50 per-file transactions at 2 ms each
        assert!(r.end.as_secs_f64() >= 0.1 - 1e-9, "{}", r.end.as_secs_f64());
    }

    #[test]
    fn resilver_is_a_no_op_on_an_unreplicated_fleet() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 1 << 20))
            .unwrap();
        let (_, t) = hsm
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                true,
                None,
            )
            .unwrap();
        let r = resilver(&hsm, NodeId(0), DataPath::LanFree, t).unwrap();
        assert_eq!(r.examined, 0);
        assert_eq!(r.end, t, "no replica target, no simulated cost");
        assert!(r.is_complete());
    }

    #[test]
    fn scrub_reports_under_replication_and_resilver_repairs_it() {
        let hsm = setup_mirrored(2);
        let pfs = hsm.pfs().clone();
        let catalog = TsmCatalog::new();
        let mut cursor = SimInstant::EPOCH;
        // Two healthy mirrored migrates...
        for i in 0..2u64 {
            let ino = pfs
                .create_file(&format!("/ok{i}"), 0, Content::synthetic(i, 1 << 20))
                .unwrap();
            let (_, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
        }
        // ...then one migrated while library 1 is down: degraded, no replica.
        hsm.server()
            .library()
            .set_library_offline(LibraryId(1), true);
        let ino = pfs
            .create_file("/degraded", 0, Content::synthetic(9, 1 << 20))
            .unwrap();
        let (objid, t) = hsm
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
        assert!(
            hsm.server().copies_of(objid).is_empty(),
            "offline library must degrade the migrate, not block it"
        );
        hsm.server()
            .library()
            .set_library_offline(LibraryId(1), false);

        let report = scrub(&hsm, &catalog, cursor).unwrap();
        assert_eq!(report.under_replicated, vec![objid]);
        assert!(report.diverged_replicas.is_empty());
        assert!(!report.is_clean());
        let snap = hsm.server().obs().snapshot();
        assert_eq!(snap.counter("scrub.under_replicated"), 1);

        let r = resilver(&hsm, NodeId(0), DataPath::LanFree, report.end).unwrap();
        assert_eq!(r.examined, 3);
        assert_eq!(r.repaired, vec![objid]);
        assert_eq!(r.replicas_written, 1);
        assert!(r.is_complete(), "{r:?}");
        assert_eq!(hsm.server().copies_of(objid).len(), 1);

        // Re-silver grew the DB; converge the catalog before the clean check.
        hsm.server().export(&catalog);
        let again = scrub(&hsm, &catalog, r.end).unwrap();
        assert!(again.is_clean(), "{again:?}");
        let snap = hsm.server().obs().snapshot();
        assert_eq!(snap.counter("replication.resilver_passes"), 1);
        assert_eq!(snap.counter("replication.resilvered"), 1);
    }

    #[test]
    fn scrub_flags_damaged_replicas_and_resilver_replaces_them() {
        let hsm = setup_mirrored(2);
        let pfs = hsm.pfs().clone();
        let catalog = TsmCatalog::new();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(3, 1 << 20))
            .unwrap();
        let (objid, t) = hsm
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                true,
                None,
            )
            .unwrap();
        let copies = hsm.server().copies_of(objid);
        assert_eq!(copies.len(), 1);
        let replica = copies[0];
        let addr = hsm.server().get(replica).unwrap().addr;
        hsm.server().library().damage_record(addr).unwrap();

        let report = scrub(&hsm, &catalog, t).unwrap();
        assert_eq!(report.diverged_replicas, vec![replica]);
        assert_eq!(report.under_replicated, vec![objid]);
        let snap = hsm.server().obs().snapshot();
        assert_eq!(snap.counter("scrub.diverged_replicas"), 1);

        // Re-silver drops the dead replica and writes a fresh one.
        let r = resilver(&hsm, NodeId(0), DataPath::LanFree, report.end).unwrap();
        assert_eq!(r.repaired, vec![objid]);
        assert!(r.is_complete(), "{r:?}");
        let copies = hsm.server().copies_of(objid);
        assert_eq!(copies.len(), 1);
        assert_ne!(copies[0], replica, "dead replica must be deregistered");

        // Re-silver rewrote the replica set; converge the catalog first.
        hsm.server().export(&catalog);
        let again = scrub(&hsm, &catalog, r.end).unwrap();
        assert!(again.is_clean(), "{again:?}");
    }
}
