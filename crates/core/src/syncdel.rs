//! The synchronous deleter (§4.2.6).
//!
//! Classic HSM deletion orphans tape data (the file-system unlink only
//! removes metadata) and relies on a periodic reconcile walk to clean up —
//! "unacceptable" at archive scale. The integration instead deletes from
//! the file system and from TSM *at the same time*: resolve the GPFS file
//! id → TSM object id through the indexed catalog, unlink, and issue the
//! TSM delete in the same operation. Only an administrative process may do
//! this, which is why user deletes go through the trashcan first.

use copra_hsm::Hsm;
use copra_journal::IntentKind;
use copra_metadb::TsmCatalog;
use copra_pfs::FileRecord;
use copra_simtime::SimInstant;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Why a synchronous delete failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncDeleteError {
    /// A scripted crash point fired mid-delete: the simulated process
    /// died with the operation half-applied. Only recovery cleans up.
    Crashed { site: String },
    /// Ordinary failure (path missing, unlink rejected, ...).
    Failed(String),
}

impl fmt::Display for SyncDeleteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncDeleteError::Crashed { site } => write!(f, "simulated crash at {site}"),
            SyncDeleteError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SyncDeleteError {}

/// Outcome of a synchronous-delete batch.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SyncDeleteReport {
    /// Files unlinked from the file system.
    pub files_deleted: usize,
    /// TSM objects deleted (may exceed files when overwrite-orphan markers
    /// are present, or trail files when some files were never migrated).
    pub objects_deleted: usize,
    /// Logical bytes released.
    pub bytes: u64,
    /// Completion instant (metadata transactions charged on the server).
    pub end: SimInstant,
    /// Per-file errors, sorted by path (deterministic across batch
    /// orderings).
    pub errors: Vec<String>,
    /// Set when a crash point killed the batch: the crash site. The
    /// remaining candidates were never attempted.
    #[serde(default)]
    pub aborted: Option<String>,
}

/// The administrative deleter.
#[derive(Clone)]
pub struct SyncDeleter {
    hsm: Hsm,
    catalog: Arc<TsmCatalog>,
}

impl SyncDeleter {
    pub fn new(hsm: Hsm, catalog: Arc<TsmCatalog>) -> Self {
        SyncDeleter { hsm, catalog }
    }

    /// Synchronously delete one file: unlink + TSM object delete(s),
    /// under a journaled intent. The object ids are recorded in the
    /// intent *before* the unlink (the point of no return) so a crash
    /// after it can be completed forward by recovery.
    pub fn delete_file(
        &self,
        path: &str,
        ready: SimInstant,
    ) -> Result<SyncDeleteReport, SyncDeleteError> {
        let pfs = self.hsm.pfs();
        let server = self.hsm.server();
        let ino = pfs
            .resolve(path)
            .map_err(|e| SyncDeleteError::Failed(e.to_string()))?;
        let mut report = SyncDeleteReport {
            end: ready,
            ..SyncDeleteReport::default()
        };
        // Object ids to kill: the live copy and any overwrite-orphan.
        let mut objids = Vec::new();
        if let Ok(region) = pfs.region(ino) {
            objids.extend(region.objid);
            objids.extend(region.orphan_objid);
        }
        // Resolve through the catalog as well (covers exported state whose
        // inode record was lost, and verifies the GPFS-file-id → object mapping
        // the paper's flow uses).
        for row in self.catalog.by_ino(ino.0) {
            if !objids.contains(&row.objid) {
                objids.push(row.objid);
            }
        }
        // Journal the intent with the resolved objids: everything recovery
        // needs to finish (or undo) this delete.
        let journal = self.hsm.journal();
        let kind = if copra_vfs::is_under(path, crate::trashcan::TRASH_ROOT) {
            IntentKind::TrashPurge {
                ino: ino.0,
                path: path.to_string(),
                objids: objids.clone(),
            }
        } else {
            IntentKind::SyncDelete {
                ino: ino.0,
                path: path.to_string(),
                objids: objids.clone(),
            }
        };
        let seq = journal.begin_intent(kind, ready, None);
        let crashed = |site: String| SyncDeleteError::Crashed { site };
        server
            .crash_point("syncdel.begin", ready)
            .map_err(|_| crashed("syncdel.begin".into()))?;
        let attr = pfs.unlink(path).map_err(|e| {
            // Nothing changed: a failed unlink leaves no intent behind.
            journal.resolve(seq);
            SyncDeleteError::Failed(e.to_string())
        })?;
        report.files_deleted = 1;
        report.bytes = attr.size;
        let mut cursor = ready;
        // Past the point of no return: the file is gone. A crash below
        // leaves an open intent that recovery completes *forward*.
        server
            .crash_point("syncdel.after_unlink", cursor)
            .map_err(|_| crashed("syncdel.after_unlink".into()))?;
        for objid in objids {
            match server.delete_object(objid, cursor) {
                Ok(end) => {
                    cursor = end;
                    report.objects_deleted += 1;
                    self.catalog.forget(objid);
                }
                Err(copra_hsm::HsmError::NoSuchObject(_)) => {
                    // already gone (e.g. deleted via an earlier orphan ref)
                    self.catalog.forget(objid);
                }
                Err(copra_hsm::HsmError::Crashed { site }) => {
                    return Err(SyncDeleteError::Crashed { site })
                }
                Err(e) => report.errors.push(format!("{path}: {e}")),
            }
            server
                .crash_point("syncdel.after_obj_delete", cursor)
                .map_err(|_| crashed("syncdel.after_obj_delete".into()))?;
        }
        // Every effect has landed: the delete resolves its own intent, so
        // the journal keeps only in-flight work.
        journal.seal(seq, cursor);
        journal.resolve(seq);
        report.errors.sort();
        report.end = cursor;
        Ok(report)
    }

    /// Purge a batch of LIST-policy candidates (typically the trashcan
    /// purge list). Never aborts on per-file errors — but a simulated
    /// crash kills the whole batch (the process died), recorded in
    /// [`SyncDeleteReport::aborted`].
    pub fn purge(&self, candidates: &[FileRecord], ready: SimInstant) -> SyncDeleteReport {
        let mut total = SyncDeleteReport {
            end: ready,
            ..SyncDeleteReport::default()
        };
        let mut cursor = ready;
        for rec in candidates {
            match self.delete_file(&rec.path, cursor) {
                Ok(r) => {
                    total.files_deleted += r.files_deleted;
                    total.objects_deleted += r.objects_deleted;
                    total.bytes += r.bytes;
                    cursor = r.end;
                    total.errors.extend(r.errors);
                }
                Err(SyncDeleteError::Crashed { site }) => {
                    total.aborted = Some(site);
                    break;
                }
                Err(e) => total.errors.push(format!("{}: {e}", rec.path)),
            }
        }
        total.errors.sort();
        total.end = cursor;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_cluster::{FtaCluster, NodeId};
    use copra_hsm::{reconcile, DataPath, PlacementPolicy, TsmServer};
    use copra_obs::Registry;
    use copra_pfs::{PfsBuilder, PoolConfig};
    use copra_simtime::{Clock, DataSize};
    use copra_tape::{TapeFleet, TapeTiming};
    use copra_vfs::Content;

    fn setup() -> (Hsm, Arc<TsmCatalog>, SyncDeleter) {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 2, DataSize::tb(1)))
            .build();
        let cluster = FtaCluster::new(2);
        let server =
            TsmServer::roadrunner(TapeFleet::new(1, 2, 8, TapeTiming::lto4(), Registry::new()));
        let hsm = Hsm::new(pfs, server, cluster, PlacementPolicy::Single);
        let catalog = Arc::new(TsmCatalog::new());
        let deleter = SyncDeleter::new(hsm.clone(), catalog.clone());
        (hsm, catalog, deleter)
    }

    #[test]
    fn deletes_file_and_tape_object_together() {
        let (hsm, catalog, deleter) = setup();
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 2_000_000))
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
        hsm.server().export(&catalog);

        let report = deleter.delete_file("/f", t).unwrap();
        assert_eq!(report.files_deleted, 1);
        assert_eq!(report.objects_deleted, 1);
        assert_eq!(report.bytes, 2_000_000);
        assert!(report.end > t, "TSM delete costs time");
        assert!(!hsm.server().contains(objid));
        assert!(catalog.lookup(objid).is_none());
        assert!(hsm.server().library().live_objects().is_empty());

        // Nothing left for reconcile to find: the whole point.
        let rep = reconcile(&pfs, hsm.server(), report.end, false).unwrap();
        assert!(rep.orphans.is_empty());
    }

    #[test]
    fn overwrite_orphan_is_cleaned_too() {
        let (hsm, catalog, deleter) = setup();
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 1_000_000))
            .unwrap();
        let (old_objid, t) = hsm
            .migrate_file(
                ino,
                NodeId(0),
                DataPath::LanFree,
                SimInstant::EPOCH,
                false,
                None,
            )
            .unwrap();
        // Overwrite while premigrated → old object becomes a marked orphan.
        pfs.write_at(ino, 0, Content::literal(&b"v2"[..])).unwrap();
        hsm.server().export(&catalog);
        let report = deleter.delete_file("/f", t).unwrap();
        assert_eq!(report.objects_deleted, 1);
        assert!(!hsm.server().contains(old_objid));
    }

    #[test]
    fn unmigrated_file_deletes_cleanly() {
        let (hsm, _catalog, deleter) = setup();
        hsm.pfs()
            .create_file("/plain", 0, Content::synthetic(1, 10))
            .unwrap();
        let report = deleter.delete_file("/plain", SimInstant::EPOCH).unwrap();
        assert_eq!(report.files_deleted, 1);
        assert_eq!(report.objects_deleted, 0);
        assert!(report.errors.is_empty());
        // A directory resolves but does not unlink: the failed delete
        // resolves the intent it began.
        hsm.pfs().mkdir_p("/dir").unwrap();
        let err = deleter.delete_file("/dir", SimInstant::EPOCH).unwrap_err();
        assert!(matches!(err, SyncDeleteError::Failed(_)), "{err}");
        assert!(hsm.journal().is_empty());
    }

    #[test]
    fn purge_batch_counts_and_survives_errors() {
        let (hsm, catalog, deleter) = setup();
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        let mut records = Vec::new();
        for i in 0..4u64 {
            let path = format!("/f{i}");
            let ino = pfs
                .create_file(&path, 0, Content::synthetic(i, 1000))
                .unwrap();
            let (_, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
            records.push(FileRecord {
                path,
                ino,
                size: 1000,
                uid: 0,
                mtime: SimInstant::EPOCH,
                atime: SimInstant::EPOCH,
                pool: pfs.pool_of(ino),
                hsm: copra_pfs::HsmState::Migrated,
            });
        }
        hsm.server().export(&catalog);
        // One candidate path vanishes before the purge runs.
        pfs.unlink("/f2").unwrap();
        let report = deleter.purge(&records, cursor);
        assert_eq!(report.files_deleted, 3);
        assert_eq!(report.objects_deleted, 3);
        assert_eq!(report.errors.len(), 1);
        // /f2's object is the one orphan reconcile still finds.
        let rep = reconcile(&pfs, hsm.server(), report.end, false).unwrap();
        assert_eq!(rep.orphans.len(), 1);
    }
}
