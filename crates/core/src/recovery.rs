//! Crash recovery: journal rollback and replay, then a self-healing scrub.
//!
//! The custom layer mutates three stores per operation (GPFS namespace,
//! TSM server DB, catalog replica) with no atomicity between them. The
//! intent journal ([`copra_journal::Journal`]) makes a crash at *any*
//! point recoverable. Every operation resolves its own intent once its
//! last effect has landed, so the journal holds only what a crash cut
//! short:
//!
//! * **Open** intents are rolled back — unless the operation passed its
//!   destructive point of no return (the unlink in a synchronous
//!   delete), in which case recovery completes it *forward* using the
//!   object ids recorded in the intent before the unlink.
//! * A **sealed** intent can only be a `MigrateCommit` that died between
//!   its seal and its punch: every store agrees, and replay does the
//!   missing punch.
//!
//! Rollback of a `MigrateCommit` never loses data because migration
//! seals the intent *before* punching the disk copy: an open migrate
//! intent implies the file's bytes are still on disk, so undoing the
//! half-registered tape object leaves a plain resident file.
//!
//! After the journal is drained, [`copra_hsm::scrub`] repairs anything
//! journalling cannot see (tape records the server DB disowned, catalog
//! drift) and verifies the catalog indexes.

use copra_hsm::{Hsm, HsmError, HsmResult, ScrubReport};
use copra_journal::{IntentKind, IntentRecord};
use copra_metadb::TsmCatalog;
use copra_obs::EventKind;
use copra_pfs::HsmState;
use copra_simtime::SimInstant;
use copra_trace::finish_opt;
use serde::{Deserialize, Serialize};

/// What one recovery pass did.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Sealed migrates whose missing punch was replayed.
    pub replayed: usize,
    /// Open intents rolled back (nothing destructive had happened).
    pub rolled_back: usize,
    /// Open intents completed forward (past the point of no return).
    pub forward_completed: usize,
    /// The scrub pass that ran after the journal was drained.
    pub scrub: ScrubReport,
    /// Simulated completion time.
    pub end: SimInstant,
}

impl RecoveryReport {
    /// True when the journal was already clean and scrub found nothing.
    pub fn is_clean(&self) -> bool {
        self.replayed == 0
            && self.rolled_back == 0
            && self.forward_completed == 0
            && self.scrub.is_clean()
    }
}

/// Delete `objids` from the server, tolerating objects already gone, and
/// drop their catalog rows. Returns the advanced cursor.
fn delete_objects(
    hsm: &Hsm,
    catalog: &TsmCatalog,
    objids: &[u64],
    mut cursor: SimInstant,
) -> HsmResult<SimInstant> {
    let server = hsm.server();
    for &objid in objids {
        match server.delete_object(objid, cursor) {
            Ok(end) => cursor = end,
            Err(HsmError::NoSuchObject(_)) => {}
            Err(e) => return Err(e),
        }
        catalog.forget(objid);
    }
    Ok(cursor)
}

/// Replay a sealed intent: a migrate that died between its seal and its
/// punch. The stores agree; the only missing effect is the hole punch.
fn replay(hsm: &Hsm, rec: &IntentRecord) -> HsmResult<()> {
    debug_assert!(
        matches!(rec.kind, IntentKind::MigrateCommit { .. }),
        "only a migrate outlives its seal: {rec:?}"
    );
    if let IntentKind::MigrateCommit {
        ino, punch: true, ..
    } = rec.kind
    {
        let pfs = hsm.pfs();
        let ino = copra_vfs::Ino(ino);
        if pfs.hsm_state(ino) == Ok(HsmState::Premigrated) {
            pfs.punch_hole(ino)?;
        }
    }
    Ok(())
}

/// Roll an open intent back, or — if its destructive step already ran —
/// complete it forward. Returns (cursor, completed_forward).
fn undo_or_finish(
    hsm: &Hsm,
    catalog: &TsmCatalog,
    rec: &IntentRecord,
    cursor: SimInstant,
) -> HsmResult<(SimInstant, bool)> {
    let pfs = hsm.pfs();
    let server = hsm.server();
    match &rec.kind {
        IntentKind::MigrateCommit {
            ino,
            objid,
            replicas,
            ..
        } => {
            // Open ⇒ not sealed ⇒ not punched: the disk copy is intact,
            // so rollback is always safe (zero lost bytes). A crash mid-
            // replication rolls the whole group back together: every
            // replica the intent recorded goes first (some may not have
            // been registered as copies of the primary yet), then the
            // primary (whose delete also sweeps any registered copies).
            let mut cursor = cursor;
            for replica in replicas {
                if server.contains(*replica) {
                    cursor = delete_objects(hsm, catalog, &[*replica], cursor)?;
                }
            }
            if let Some(objid) = objid {
                if server.contains(*objid) {
                    cursor = delete_objects(hsm, catalog, &[*objid], cursor)?;
                }
            }
            let ino = copra_vfs::Ino(*ino);
            if pfs.hsm_state(ino) == Ok(HsmState::Premigrated) {
                pfs.mark_resident(ino)?;
            }
            Ok((cursor, false))
        }
        IntentKind::SyncDelete { path, objids, .. }
        | IntentKind::TrashPurge { path, objids, .. } => {
            if pfs.resolve(path).is_ok() {
                // Crash before the unlink: nothing durable happened.
                Ok((cursor, false))
            } else {
                // Past the point of no return — the file is gone. Finish
                // the tape-side deletes the intent recorded up front.
                let cursor = delete_objects(hsm, catalog, objids, cursor)?;
                Ok((cursor, true))
            }
        }
        // A torn reclaim leaves a duplicate or disowned tape record;
        // the scrub's record-vs-DB-address rule drops it.
        IntentKind::Reclaim { .. } => Ok((cursor, false)),
    }
}

/// Recover the archive after a (simulated) crash: drain the intent
/// journal — the punch of each sealed migrate, open intents back (or
/// forward past the point of no return) — then scrub the stores back into
/// agreement.
///
/// Counters `journal.recovered_replayed` / `recovered_rolled_back` /
/// `recovered_forward` are only ever incremented here, so a fault-free
/// run snapshots all three at zero.
pub fn recover(hsm: &Hsm, catalog: &TsmCatalog, ready: SimInstant) -> HsmResult<RecoveryReport> {
    let obs = hsm.server().obs().clone();
    let journal = hsm.journal().clone();
    let replayed_ctr = obs.counter("journal.recovered_replayed");
    let rolled_ctr = obs.counter("journal.recovered_rolled_back");
    let forward_ctr = obs.counter("journal.recovered_forward");
    // Root span for the whole pass, keyed by the recovery instant (sim
    // time, so repeated recoveries in one trace stay distinct).
    let tracer = obs.tracer();
    let root = tracer.root("recover", ready.as_nanos(), ready);
    let root_ctx = root.as_ref().map(|g| g.ctx());

    let mut report = RecoveryReport {
        end: ready,
        ..RecoveryReport::default()
    };
    let mut cursor = ready;

    for rec in journal.sealed_intents() {
        let w0 = tracer.wall_now_ns();
        replay(hsm, &rec)?;
        journal.resolve(rec.seq);
        report.replayed += 1;
        replayed_ctr.inc();
        let span = tracer.record_closed(root_ctx, "recover.replay", rec.seq, cursor, cursor, w0);
        obs.event_with_span(
            cursor,
            EventKind::Recovery {
                what: "replay".into(),
                detail: format!("seq={} {}", rec.seq, rec.kind.label()),
            },
            span,
        );
    }

    for rec in journal.open_intents() {
        let w0 = tracer.wall_now_ns();
        let start = cursor;
        let (next, forward) = undo_or_finish(hsm, catalog, &rec, cursor)?;
        cursor = next;
        journal.resolve(rec.seq);
        let name = if forward {
            report.forward_completed += 1;
            forward_ctr.inc();
            "recover.forward"
        } else {
            report.rolled_back += 1;
            rolled_ctr.inc();
            "recover.rollback"
        };
        let span = tracer.record_closed(root_ctx, name, rec.seq, start, cursor, w0);
        obs.event_with_span(
            cursor,
            EventKind::Recovery {
                what: if forward {
                    "forward-complete"
                } else {
                    "rollback"
                }
                .into(),
                detail: format!("seq={} {}", rec.seq, rec.kind.label()),
            },
            span,
        );
    }

    let w0 = tracer.wall_now_ns();
    report.scrub = copra_hsm::scrub(hsm, catalog, cursor)?;
    report.end = report.scrub.end;
    tracer.record_closed(root_ctx, "recover.scrub", 0, cursor, report.end, w0);
    finish_opt(root, report.end);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syncdel::SyncDeleter;
    use copra_cluster::NodeId;
    use copra_faults::FaultPlan;
    use copra_hsm::DataPath;
    use copra_vfs::Content;
    use std::sync::Arc;

    fn system() -> crate::system::ArchiveSystem {
        crate::system::ArchiveSystem::new(crate::system::SystemConfig::test_small())
    }

    #[test]
    fn clean_system_recovers_to_clean_report() {
        let sys = system();
        let pfs = sys.archive().clone();
        pfs.create_file("/f", 0, Content::synthetic(1, 2_000_000))
            .unwrap();
        let ino = pfs.resolve("/f").unwrap();
        sys.hsm()
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                true,
                None,
            )
            .unwrap();
        // The finished migrate resolved its own intent.
        assert!(sys.hsm().journal().is_empty());
        sys.export_catalog();
        let report = sys.recover(sys.clock().now()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(sys.hsm().journal().is_empty());
    }

    /// Migrate `/d/f` with punch on `sys`; returns its ino and the
    /// migrate's completion.
    fn migrate_punched(sys: &crate::system::ArchiveSystem) -> (copra_vfs::Ino, SimInstant) {
        let pfs = sys.archive();
        pfs.mkdir_p("/d").unwrap();
        let ino = pfs
            .create_file("/d/f", 0, Content::synthetic(5, 2_000_000))
            .unwrap();
        let (_, t) = sys
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
        sys.export_catalog();
        (ino, t)
    }

    #[test]
    fn recovery_keeps_a_recall_made_after_the_migrate() {
        let sys = system();
        let (ino, t) = migrate_punched(&sys);
        let t = sys
            .hsm()
            .recall_file(ino, NodeId(0), DataPath::LanFree, t, None)
            .unwrap();
        assert_eq!(sys.archive().hsm_state(ino).unwrap(), HsmState::Premigrated);
        let report = sys.recover(t).unwrap();
        assert_eq!(report.replayed, 0, "a finished migrate must not replay");
        assert_eq!(sys.archive().hsm_state(ino).unwrap(), HsmState::Premigrated);
        assert_eq!(
            sys.archive().read_resident("/d/f").unwrap().len(),
            2_000_000
        );
    }

    #[test]
    fn recovery_keeps_a_pinned_stager_pool_file_on_disk() {
        let sys = crate::system::ArchiveSystem::new(
            crate::system::SystemConfig::test_small()
                .with_stager(copra_stager::StagerConfig::default()),
        );
        let (ino, t) = migrate_punched(&sys);
        let stager = sys.stager().unwrap();
        stager
            .submit(copra_stager::RecallRequest::new("/d/f").pin(true), t)
            .unwrap();
        let t = stager.drain(t).unwrap();
        assert!(stager.pool_contains("/d/f").unwrap());
        assert_eq!(sys.archive().hsm_state(ino).unwrap(), HsmState::Premigrated);
        let report = sys.recover(t).unwrap();
        assert_eq!(report.replayed, 0, "a finished migrate must not replay");
        assert_eq!(sys.archive().hsm_state(ino).unwrap(), HsmState::Premigrated);
        assert!(stager.pool_contains("/d/f").unwrap());
        // The pinned hit is served off disk: no tape mount.
        let mounts = sys.hsm().server().library().stats().totals.mounts;
        stager
            .submit(copra_stager::RecallRequest::new("/d/f"), report.end)
            .unwrap();
        assert!(stager.take_completions().pop().unwrap().cache_hit);
        assert_eq!(sys.hsm().server().library().stats().totals.mounts, mounts);
    }

    #[test]
    fn open_migrate_intent_rolls_back_without_losing_bytes() {
        let sys = system();
        let pfs = sys.archive().clone();
        pfs.create_file("/f", 0, Content::synthetic(7, 3_000_000))
            .unwrap();
        let ino = pfs.resolve("/f").unwrap();
        sys.arm_faults(FaultPlan::new(42).crash_at("migrate.after_mark", 1));
        let err = sys
            .hsm()
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                true,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, HsmError::Crashed { .. }), "{err}");
        // Torn: stub marked premigrated, object in DB, intent open.
        assert_eq!(sys.hsm().journal().open_intents().len(), 1);

        let report = sys.recover(sys.clock().now()).unwrap();
        assert_eq!(report.rolled_back, 1);
        // Back to a plain resident file with all its bytes.
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Resident);
        assert_eq!(pfs.read_resident("/f").unwrap().len(), 3_000_000);
        assert!(report.scrub.lost_stubs.is_empty());
        assert!(sys.hsm().journal().is_empty());
    }

    #[test]
    fn open_delete_intent_past_unlink_completes_forward() {
        let sys = system();
        let pfs = sys.archive().clone();
        pfs.create_file("/f", 0, Content::synthetic(3, 2_000_000))
            .unwrap();
        let ino = pfs.resolve("/f").unwrap();
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
        sys.export_catalog();
        sys.arm_faults(FaultPlan::new(42).crash_at("syncdel.after_unlink", 1));
        let deleter = SyncDeleter::new(sys.hsm().clone(), Arc::clone(sys.catalog()));
        let err = deleter.delete_file("/f", t).unwrap_err();
        assert!(matches!(
            err,
            crate::syncdel::SyncDeleteError::Crashed { .. }
        ));
        // Torn: file gone, tape object still alive.
        assert!(pfs.resolve("/f").is_err());
        assert!(sys.hsm().server().contains(objid));

        let report = sys.recover(sys.clock().now()).unwrap();
        assert_eq!(report.forward_completed, 1);
        assert!(!sys.hsm().server().contains(objid));
        assert!(sys.catalog().lookup(objid).is_none());
        assert!(sys.hsm().server().library().live_objects().is_empty());
        assert!(sys.hsm().journal().is_empty());
        let snap = sys.obs().snapshot();
        assert_eq!(snap.counter("journal.recovered_forward"), 1);
    }
}
