//! The trashcan (§4.2.7).
//!
//! "From a user's perspective, the trashcan is identical to the Windows
//! Recycle Bin": user deletes move files under `/.trash/<uid>/`, un-delete
//! restores them, and a GPFS LIST policy periodically gathers trashed
//! files (by age or size) for the synchronous deleter to purge.

use copra_fuse::ArchiveFuse;
use copra_pfs::{Cmp, FileRecord, PolicyEngine, Predicate, Rule};
use copra_simtime::SimDuration;
use copra_vfs::{FsError, FsResult};

/// Root of the per-user trash directories on the archive file system.
pub const TRASH_ROOT: &str = "/.trash";

/// Trashcan operations over the archive namespace (fuse-aware: trashing a
/// chunked file parks the whole chunk directory).
#[derive(Clone)]
pub struct Trashcan {
    fuse: ArchiveFuse,
}

impl Trashcan {
    pub fn new(fuse: ArchiveFuse) -> Self {
        Trashcan { fuse }
    }

    /// User-level delete: park `path` in the owner's trash directory.
    /// Returns the trash path.
    pub fn delete(&self, path: &str) -> FsResult<String> {
        if copra_vfs::is_under(path, TRASH_ROOT) {
            return Err(FsError::PermissionDenied(format!(
                "{path} is already in the trash"
            )));
        }
        self.fuse.unlink_to_trash(path, TRASH_ROOT)
    }

    /// Un-delete: move a trashed entry back to `restore_to` (§4.2.7 "we
    /// can also un-delete in case a user accidentally deletes a file").
    pub fn undelete(&self, trash_path: &str, restore_to: &str) -> FsResult<()> {
        if !copra_vfs::is_under(trash_path, TRASH_ROOT) {
            return Err(FsError::PermissionDenied(format!(
                "{trash_path} is not in the trash"
            )));
        }
        let (parent, _) = copra_vfs::parent_and_name(restore_to)?;
        self.fuse.pfs().mkdir_p(&parent)?;
        self.fuse.pfs().rename(trash_path, restore_to)
    }

    /// LIST policy selecting purgeable trash entries: everything under the
    /// trash root older than `min_age` or larger than `min_size` bytes.
    fn purge_policy(min_age: SimDuration, min_size: u64) -> PolicyEngine {
        PolicyEngine::new(vec![Rule::list(
            "trash-purge",
            "purge",
            Predicate::Under(TRASH_ROOT.to_string()).and(Predicate::Any(vec![
                Predicate::MtimeAge(Cmp::Ge, min_age),
                Predicate::SizeBytes(Cmp::Ge, min_size),
            ])),
        )])
    }

    /// Run the purge policy over the archive and return the candidates
    /// (the synchronous deleter consumes these).
    pub fn purge_candidates(&self, min_age: SimDuration, min_size: u64) -> Vec<FileRecord> {
        let engine = Self::purge_policy(min_age, min_size);
        let report = self.fuse.pfs().run_policy(&engine);
        report.lists.get("purge").cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_pfs::{PfsBuilder, PoolConfig};
    use copra_simtime::{Clock, DataSize, SimInstant};
    use copra_vfs::Content;

    fn setup() -> (Clock, Trashcan) {
        let clock = Clock::new();
        let pfs = PfsBuilder::new("archive", clock.clone())
            .pool(PoolConfig::fast_disk("fast", 2, DataSize::tb(1)))
            .build();
        pfs.mkdir_p(TRASH_ROOT).unwrap();
        pfs.mkdir_p("/data").unwrap();
        let fuse = ArchiveFuse::new(pfs, DataSize::mb(100), DataSize::mb(10));
        (clock, Trashcan::new(fuse))
    }

    #[test]
    fn delete_parks_and_undelete_restores() {
        let (_, trash) = setup();
        let pfs = trash.fuse.pfs().clone();
        pfs.create_file("/data/f", 42, Content::synthetic(1, 1000))
            .unwrap();
        let parked = trash.delete("/data/f").unwrap();
        assert!(!pfs.exists("/data/f"));
        assert!(parked.starts_with("/.trash/42/"));
        trash.undelete(&parked, "/data/f").unwrap();
        assert!(pfs.exists("/data/f"));
        assert_eq!(pfs.read_resident("/data/f").unwrap().len(), 1000);
    }

    #[test]
    fn double_delete_and_bad_undelete_rejected() {
        let (_, trash) = setup();
        let pfs = trash.fuse.pfs().clone();
        pfs.create_file("/data/f", 0, Content::synthetic(1, 10))
            .unwrap();
        let parked = trash.delete("/data/f").unwrap();
        assert!(trash.delete(&parked).is_err());
        assert!(trash.undelete("/data/other", "/x").is_err());
    }

    #[test]
    fn purge_selects_by_age_and_size() {
        let (clock, trash) = setup();
        let pfs = trash.fuse.pfs().clone();
        pfs.create_file("/data/old-small", 1, Content::synthetic(1, 10))
            .unwrap();
        trash.delete("/data/old-small").unwrap();
        clock.advance_to(SimInstant::from_secs(100_000));
        // Created (mtime) after the clock advance: too young to purge by
        // age, so only the big one qualifies (by size).
        pfs.create_file("/data/new-big", 1, Content::synthetic(2, 10_000_000))
            .unwrap();
        pfs.create_file("/data/new-small", 1, Content::synthetic(3, 10))
            .unwrap();
        trash.delete("/data/new-big").unwrap();
        trash.delete("/data/new-small").unwrap();
        let cands = trash.purge_candidates(SimDuration::from_secs(86_400), 1_000_000);
        let mut names: Vec<_> = cands
            .iter()
            .map(|r| {
                r.path
                    .rsplit('/')
                    .next()
                    .unwrap()
                    .split('.')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        names.sort();
        assert_eq!(names, vec!["new-big", "old-small"]);
    }

    #[test]
    fn undelete_into_collision_keeps_trashed_copy() {
        let (_, trash) = setup();
        let pfs = trash.fuse.pfs().clone();
        pfs.create_file("/data/f", 42, Content::synthetic(1, 1000))
            .unwrap();
        let parked = trash.delete("/data/f").unwrap();
        // A new file takes the old name before the un-delete.
        pfs.create_file("/data/f", 42, Content::synthetic(2, 500))
            .unwrap();
        let err = trash.undelete(&parked, "/data/f").unwrap_err();
        assert!(matches!(err, FsError::AlreadyExists(_)), "{err}");
        // Nothing clobbered: the new file and the trashed copy both live.
        assert_eq!(pfs.read_resident("/data/f").unwrap().len(), 500);
        assert_eq!(pfs.read_resident(&parked).unwrap().len(), 1000);
        // Restoring under a fresh name still works.
        trash.undelete(&parked, "/data/f.restored").unwrap();
        assert_eq!(pfs.read_resident("/data/f.restored").unwrap().len(), 1000);
    }

    #[test]
    fn purge_of_chunked_trash_deletes_every_chunk() {
        use crate::syncdel::SyncDeleter;
        use copra_cluster::FtaCluster;
        use copra_hsm::{Hsm, PlacementPolicy, TsmServer};
        use copra_metadb::TsmCatalog;
        use copra_obs::Registry;
        use copra_tape::{TapeFleet, TapeTiming};
        use std::sync::Arc;

        let (_, trash) = setup();
        let pfs = trash.fuse.pfs().clone();
        trash
            .fuse
            .write_file("/data/huge", 7, Content::synthetic(9, 150_000_000))
            .unwrap();
        // User delete parks the whole chunk directory as one unit.
        let parked = trash.delete("/data/huge").unwrap();
        assert_eq!(trash.fuse.chunks(&parked).unwrap().len(), 15);

        // Purge-by-size lists every chunk file; the synchronous deleter
        // removes them all (none ever migrated → no tape objects).
        let cands = trash.purge_candidates(SimDuration::from_secs(86_400), 1_000_000);
        assert_eq!(cands.len(), 15, "one purge candidate per chunk");
        let cluster = FtaCluster::new(2);
        let server =
            TsmServer::roadrunner(TapeFleet::new(1, 2, 8, TapeTiming::lto4(), Registry::new()));
        let hsm = Hsm::new(pfs.clone(), server, cluster, PlacementPolicy::Single);
        let catalog = Arc::new(TsmCatalog::new());
        let deleter = SyncDeleter::new(hsm, catalog);
        let report = deleter.purge(&cands, SimInstant::EPOCH);
        assert_eq!(report.files_deleted, 15);
        assert_eq!(report.objects_deleted, 0);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.aborted.is_none());
        assert!(trash.fuse.chunks(&parked).unwrap().is_empty());
    }

    #[test]
    fn chunked_files_trash_as_a_unit() {
        let (_, trash) = setup();
        let pfs = trash.fuse.pfs().clone();
        pfs.mkdir_p("/data").unwrap();
        trash
            .fuse
            .write_file("/data/huge", 7, Content::synthetic(5, 150_000_000))
            .unwrap();
        assert!(trash.fuse.is_chunked("/data/huge").unwrap());
        let parked = trash.delete("/data/huge").unwrap();
        assert!(trash.fuse.is_chunked(&parked).unwrap());
        assert_eq!(trash.fuse.chunks(&parked).unwrap().len(), 15);
    }
}
