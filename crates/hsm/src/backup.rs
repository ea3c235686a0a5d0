//! Backup — the *other* half of the "backup/archive product" (§2.2, §4.4).
//!
//! Migration moves a file's only copy to tape and leaves a stub; **backup**
//! writes a point-in-time copy to tape and leaves the file untouched, with
//! older versions retained. The paper uses the distinction directly:
//! "very small files can be backed up but medium sized files (millions of
//! them) may need to be migrated" (§4.4), and §6.1 notes the TSM *backup*
//! client already aggregates small files while migration does not — so
//! aggregation is built into the backup path here from the start.

use crate::agent::{DataPath, Volume};
use crate::error::{HsmError, HsmResult};
use crate::hsm::Hsm;
use copra_cluster::NodeId;
use copra_simtime::{DataSize, SimInstant};
use copra_vfs::{Content, Ino};
use serde::{Deserialize, Serialize};

/// One retained backup version of a file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackupVersion {
    pub objid: u64,
    pub taken_at: SimInstant,
    pub len: u64,
}

/// Outcome of a backup run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BackupOutcome {
    /// (file, new version objid) per file backed up.
    pub versions: Vec<(Ino, u64)>,
    /// Tape transactions used (aggregation packs many files per tx).
    pub transactions: usize,
    pub end: SimInstant,
}

impl Hsm {
    /// Back up one file: store a point-in-time copy on tape; the file's
    /// residency state is untouched and prior versions are retained (up to
    /// `retain` total — older ones are expired from tape and DB).
    pub fn backup_file(
        &self,
        ino: Ino,
        node: NodeId,
        data_path: DataPath,
        ready: SimInstant,
        retain: usize,
    ) -> HsmResult<(u64, SimInstant)> {
        let state_before = self.pfs().hsm_state(ino)?;
        if !state_before.on_disk() {
            return Err(HsmError::WrongState {
                ino: ino.0,
                state: state_before.to_string(),
                needed: "data on disk".to_string(),
            });
        }
        let path = self.pfs().path_of(ino)?;
        let content = self.pfs().vfs().peek_content(ino)?;
        let r = self
            .pfs()
            .charge_read(ino, ready, DataSize::from_bytes(content.len()));
        let (objid, t) =
            self.agent(node)
                .store(&path, ino.0, content, r.end, data_path, Volume::Agent)?;
        let t = self.register_backup_version(ino, objid, t, retain)?;
        // Residency is untouched — backup is not migration.
        debug_assert_eq!(self.pfs().hsm_state(ino)?, state_before);
        Ok((objid, t))
    }

    /// Back up many small files as aggregated containers (one transaction
    /// per container) — what the TSM backup client does per §6.1.
    pub fn backup_files_aggregated(
        &self,
        files: &[Ino],
        node: NodeId,
        data_path: DataPath,
        container_cap: DataSize,
        ready: SimInstant,
        retain: usize,
    ) -> HsmResult<BackupOutcome> {
        let mut out = BackupOutcome {
            end: ready,
            ..BackupOutcome::default()
        };
        // Container payloads: (path, ino, content), moved into the store.
        let mut batch: Vec<(String, u64, Content)> = Vec::new();
        let mut batch_bytes = 0u64;
        let mut cursor = ready;

        let flush = |batch: &mut Vec<(String, u64, Content)>,
                     cursor: &mut SimInstant,
                     out: &mut BackupOutcome|
         -> HsmResult<()> {
            if batch.is_empty() {
                return Ok(());
            }
            let mut t = *cursor;
            for (_, ino, c) in batch.iter() {
                let r = self
                    .pfs()
                    .charge_read(Ino(*ino), *cursor, DataSize::from_bytes(c.len()));
                t = t.max(r.end);
            }
            let inos: Vec<Ino> = batch.iter().map(|(_, ino, _)| Ino(*ino)).collect();
            let (ids, end) =
                self.agent(node)
                    .store_container(std::mem::take(batch), t, data_path)?;
            let mut end = end;
            for (ino, objid) in inos.into_iter().zip(ids) {
                end = self.register_backup_version(ino, objid, end, retain)?;
                out.versions.push((ino, objid));
            }
            out.transactions += 1;
            *cursor = end;
            Ok(())
        };

        for &ino in files {
            let state = self.pfs().hsm_state(ino)?;
            if !state.on_disk() {
                return Err(HsmError::WrongState {
                    ino: ino.0,
                    state: state.to_string(),
                    needed: "data on disk".to_string(),
                });
            }
            let path = self.pfs().path_of(ino)?;
            let content = self.pfs().vfs().peek_content(ino)?;
            let len = content.len();
            if batch_bytes + len > container_cap.as_bytes() && !batch.is_empty() {
                flush(&mut batch, &mut cursor, &mut out)?;
                batch_bytes = 0;
            }
            batch_bytes += len;
            batch.push((path, ino.0, content));
        }
        flush(&mut batch, &mut cursor, &mut out)?;
        out.end = cursor;
        Ok(out)
    }

    fn register_backup_version(
        &self,
        ino: Ino,
        objid: u64,
        ready: SimInstant,
        retain: usize,
    ) -> HsmResult<SimInstant> {
        let mut cursor = ready;
        self.server().push_backup_version(ino.0, objid);
        // Expire versions beyond the retention count (oldest first).
        for expired in self.server().trim_backup_versions(ino.0, retain.max(1)) {
            cursor = self.server().delete_object(expired, cursor)?;
        }
        Ok(cursor)
    }

    /// Retained versions for a file, oldest first.
    pub fn backup_versions(&self, ino: Ino) -> Vec<BackupVersion> {
        self.server()
            .backup_versions(ino.0)
            .into_iter()
            .filter_map(|objid| {
                self.server().get(objid).ok().map(|o| BackupVersion {
                    objid,
                    taken_at: o.stored_at,
                    len: o.len,
                })
            })
            .collect()
    }

    /// Restore a backup version into the archive namespace at `dst_path`
    /// (a fresh file — point-in-time restore never clobbers in place).
    pub fn restore_backup(
        &self,
        objid: u64,
        node: NodeId,
        data_path: DataPath,
        dst_path: &str,
        uid: u32,
        ready: SimInstant,
    ) -> HsmResult<SimInstant> {
        let (content, t) = self.agent(node).fetch(objid, ready, data_path)?;
        let len = DataSize::from_bytes(content.len());
        let ino = self.pfs().create_file(dst_path, uid, content)?;
        let w = self.pfs().charge_write(ino, t, len);
        Ok(w.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hsm::PlacementPolicy;
    use crate::server::TsmServer;
    use copra_cluster::{ClusterConfig, FtaCluster};
    use copra_obs::Registry;
    use copra_pfs::{HsmState, PfsBuilder, PoolConfig};
    use copra_simtime::Clock;
    use copra_tape::{TapeFleet, TapeTiming};

    fn setup() -> Hsm {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .build();
        let cluster = FtaCluster::new(ClusterConfig::tiny(2));
        let server = TsmServer::roadrunner(TapeFleet::new(
            1,
            2,
            16,
            TapeTiming::lto4(),
            Registry::new(),
        ));
        Hsm::new(pfs, server, cluster, PlacementPolicy::Single)
    }

    #[test]
    fn backup_leaves_file_resident_and_versions_accumulate() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 1_000_000))
            .unwrap();
        let (v1, t1) = hsm
            .backup_file(ino, NodeId(0), DataPath::LanFree, SimInstant::EPOCH, 5)
            .unwrap();
        assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Resident);
        // Change the file, back up again: two versions, both fetchable.
        pfs.write_at(ino, 0, Content::synthetic(2, 1_000_000))
            .unwrap();
        let (v2, t2) = hsm
            .backup_file(ino, NodeId(0), DataPath::LanFree, t1, 5)
            .unwrap();
        assert_ne!(v1, v2);
        let versions = hsm.backup_versions(ino);
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0].objid, v1);
        assert_eq!(versions[1].objid, v2);
        // Point-in-time restore of the OLD version.
        let t3 = hsm
            .restore_backup(v1, NodeId(1), DataPath::LanFree, "/f.v1", 0, t2)
            .unwrap();
        assert!(t3 > t2);
        let old = pfs.read_resident("/f.v1").unwrap();
        assert!(old.eq_content(&Content::synthetic(1, 1_000_000)));
        // Current content unchanged.
        let cur = pfs.read_resident("/f").unwrap();
        assert!(cur.eq_content(&Content::synthetic(2, 1_000_000)));
    }

    #[test]
    fn retention_expires_old_versions() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(0, 1000))
            .unwrap();
        let mut cursor = SimInstant::EPOCH;
        let mut ids = Vec::new();
        for i in 0..5u64 {
            pfs.write_at(ino, 0, Content::synthetic(i, 1000)).unwrap();
            let (objid, t) = hsm
                .backup_file(ino, NodeId(0), DataPath::LanFree, cursor, 3)
                .unwrap();
            cursor = t;
            ids.push(objid);
        }
        let versions = hsm.backup_versions(ino);
        assert_eq!(versions.len(), 3);
        assert_eq!(
            versions.iter().map(|v| v.objid).collect::<Vec<_>>(),
            ids[2..].to_vec()
        );
        // Expired versions are gone from the server and tape.
        assert!(!hsm.server().contains(ids[0]));
        assert!(!hsm.server().contains(ids[1]));
    }

    #[test]
    fn aggregated_backup_packs_transactions() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let inos: Vec<Ino> = (0..30u64)
            .map(|i| {
                pfs.create_file(&format!("/s{i:02}"), 0, Content::synthetic(i, 100_000))
                    .unwrap()
            })
            .collect();
        let out = hsm
            .backup_files_aggregated(
                &inos,
                NodeId(0),
                DataPath::LanFree,
                DataSize::mb(1),
                SimInstant::EPOCH,
                2,
            )
            .unwrap();
        assert_eq!(out.versions.len(), 30);
        assert_eq!(out.transactions, 3); // 30 x 100 KB in 1 MB containers
                                         // All files untouched on disk.
        for &ino in &inos {
            assert_eq!(pfs.hsm_state(ino).unwrap(), HsmState::Resident);
        }
        // And each file's version fetches back correctly.
        let (ino, objid) = out.versions[17];
        let (content, _) = hsm
            .agent(NodeId(1))
            .fetch(objid, out.end, DataPath::LanFree)
            .unwrap();
        let disk = pfs.vfs().peek_content(ino).unwrap();
        assert!(content.eq_content(&disk));
    }

    #[test]
    fn backup_of_stub_is_rejected() {
        let hsm = setup();
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 1000))
            .unwrap();
        hsm.migrate_file(
            ino,
            NodeId(0),
            DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            None,
        )
        .unwrap();
        assert!(matches!(
            hsm.backup_file(ino, NodeId(0), DataPath::LanFree, SimInstant::EPOCH, 3),
            Err(HsmError::WrongState { .. })
        ));
    }
}
