//! Volume reclamation.
//!
//! Tape never frees space in place: deleting objects leaves dead spans
//! (§4.2.6's deletes, the fuse trashcan purges, overwrite orphans) until a
//! volume's reclaimable fraction crosses a threshold and its remaining
//! live data is *moved* to another volume, after which the cartridge
//! returns to scratch. TSM runs this as a background storage-pool task;
//! the paper's integration depends on it implicitly — synchronous deletes
//! only drop catalog entries, reclamation is what gives the space back.
//!
//! Damaged records cannot be moved; they are dropped and reported as data
//! loss (which is what a copy storage pool exists to absorb — the copy
//! objects live on other volumes and keep recalls working).

#[cfg(test)]
use crate::error::HsmError;
use crate::error::HsmResult;
use crate::server::TsmServer;
use copra_simtime::SimInstant;
use copra_tape::{TapeAddress, TapeError, TapeId};
use serde::{Deserialize, Serialize};

/// Storage-agent id used by the reclamation mover (it is server-driven,
/// not tied to an FTA node).
const RECLAIM_AGENT: u32 = u32::MAX;

/// What one volume reclamation did.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReclaimReport {
    /// Tape records moved to new volumes.
    pub moved_records: usize,
    /// Catalog objects whose address changed (members ride along with
    /// their container, so this can exceed `moved_records`).
    pub rebased_objects: usize,
    /// Bytes of live data moved.
    pub moved_bytes: u64,
    /// Objects lost to media damage (their spans were unreadable).
    pub lost_objects: Vec<u64>,
    /// Whether the volume was wiped back to scratch.
    pub erased: bool,
    /// Completion instant.
    pub end: SimInstant,
}

/// Reclaim one volume: move every live record to other volumes, rebase
/// the catalog, and erase the cartridge.
pub fn reclaim_volume(
    server: &TsmServer,
    tape: TapeId,
    ready: SimInstant,
) -> HsmResult<ReclaimReport> {
    let lib = server.library().clone();
    let mut report = ReclaimReport {
        end: ready,
        ..ReclaimReport::default()
    };
    // Snapshot the live records (seq order = front-to-back read order).
    let live: Vec<(u32, u64, u64)> = lib.with_cartridge(tape, |c| {
        c.records()
            .iter()
            .filter(|r| !r.is_deleted())
            .map(|r| (r.seq, r.objid, r.len))
            .collect()
    })?;
    let mut cursor = ready;
    if !live.is_empty() {
        let (src_drive, t) = lib.ensure_mounted(tape, cursor)?;
        cursor = t;
        for (seq, objid, len) in live {
            let old_addr = TapeAddress { tape, seq };
            // Read the record through the source drive.
            let read = lib.read_object(src_drive, RECLAIM_AGENT, old_addr, None, cursor);
            let (content, t) = match read {
                Ok(ok) => ok,
                Err(TapeError::MediaError(_)) => {
                    // Unreadable: drop the record and every catalog object
                    // that pointed at it (copies on other volumes survive
                    // and keep serving recalls).
                    lib.delete_object(old_addr)?;
                    let lost: Vec<u64> = server
                        .objects()
                        .into_iter()
                        .filter(|o| o.addr == old_addr)
                        .map(|o| o.objid)
                        .collect();
                    for &objid in &lost {
                        let _ = server.forget_object(objid);
                    }
                    report.lost_objects.extend(lost);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            cursor = t;
            // Write it to a different volume.
            let (target, t) = server.assign_volume_avoiding(
                copra_simtime::DataSize::from_bytes(len),
                None,
                &[tape],
                cursor,
            )?;
            cursor = t;
            let (dst_drive, t) = match lib.ensure_mounted(target, cursor) {
                Ok(ok) => ok,
                Err(TapeError::TapeInUse { .. }) => {
                    // someone grabbed it; ask again next iteration
                    let (target2, t2) = server.assign_volume_avoiding(
                        copra_simtime::DataSize::from_bytes(len),
                        None,
                        &[tape],
                        cursor,
                    )?;
                    lib.ensure_mounted(target2, t2)?
                }
                Err(e) => return Err(e.into()),
            };
            cursor = t;
            let (new_addr, t) =
                lib.write_object(dst_drive, RECLAIM_AGENT, objid, content, cursor)?;
            cursor = t;
            // New record written, DB still points at the old address: the
            // new record is the divergent one and scrub drops it.
            server.crash_point("reclaim.after_copy", cursor)?;
            // Rebase every object sharing the old record (containers carry
            // their members), then kill the old record.
            report.rebased_objects += server.rebase_addr(old_addr, new_addr);
            // DB rebased, old record still live: now the *old* record is
            // the divergent one and scrub drops it instead.
            server.crash_point("reclaim.after_rebase", cursor)?;
            lib.delete_object(old_addr)?;
            report.moved_records += 1;
            report.moved_bytes += len;
        }
        // Dismount so the cartridge can be wiped.
        cursor = lib.dismount(src_drive, cursor)?;
    }
    match lib.erase_volume(tape) {
        Ok(()) => report.erased = true,
        Err(TapeError::VolumeNotEmpty(_)) => report.erased = false,
        Err(e) => return Err(e.into()),
    }
    report.end = server.meta_op(cursor);
    Ok(report)
}

/// Reclaim every volume whose dead fraction is at least `threshold`.
/// Returns per-volume reports in tape order.
pub fn reclaim_eligible(
    server: &TsmServer,
    threshold: f64,
    ready: SimInstant,
) -> HsmResult<Vec<(TapeId, ReclaimReport)>> {
    let mut out = Vec::new();
    let mut cursor = ready;
    for tape in server.library().reclaimable_volumes(threshold) {
        let report = reclaim_volume(server, tape, cursor)?;
        cursor = report.end;
        out.push((tape, report));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::DataPath;
    use crate::hsm::{Hsm, PlacementPolicy};
    use copra_cluster::{FtaCluster, NodeId};
    use copra_obs::Registry;
    use copra_pfs::{PfsBuilder, PoolConfig};
    use copra_simtime::{Clock, DataSize};
    use copra_tape::{TapeFleet, TapeTiming};
    use copra_vfs::Content;

    fn setup(placement: PlacementPolicy) -> Hsm {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .build();
        let cluster = FtaCluster::new(2);
        let server =
            TsmServer::roadrunner(TapeFleet::new(1, 2, 8, TapeTiming::lto4(), Registry::new()));
        Hsm::new(pfs, server, cluster, placement)
    }

    /// Migrate files onto one volume, delete most, reclaim, and verify the
    /// survivors still recall with correct bytes from their new home.
    #[test]
    fn reclaim_moves_live_data_and_recalls_still_work() {
        let hsm = setup(PlacementPolicy::Single);
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        let mut inos = Vec::new();
        let mut contents = Vec::new();
        for i in 0..8u64 {
            let c = Content::synthetic(i, 3_000_000);
            let ino = pfs.create_file(&format!("/f{i}"), 0, c.clone()).unwrap();
            let (_, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
            inos.push(ino);
            contents.push(c);
        }
        let lib = hsm.server().library().clone();
        let tape = lib
            .drive_holding(copra_tape::TapeId(0))
            .map(|_| copra_tape::TapeId(0))
            .unwrap_or(copra_tape::TapeId(0));
        // Delete 6 of 8 (synchronously at the object level).
        for &ino in inos.iter().take(6) {
            let objid = pfs.hsm_objid(ino).unwrap().unwrap();
            cursor = hsm.server().delete_object(objid, cursor).unwrap();
            pfs.unlink(&pfs.path_of(ino).unwrap()).unwrap();
        }
        assert!(
            lib.with_cartridge(tape, |c| c.reclaimable_fraction())
                .unwrap()
                > 0.7
        );
        assert_eq!(lib.reclaimable_volumes(0.5), vec![tape]);

        let report = reclaim_volume(hsm.server(), tape, cursor).unwrap();
        assert_eq!(report.moved_records, 2);
        assert_eq!(report.rebased_objects, 2);
        assert!(report.erased);
        assert!(report.lost_objects.is_empty());
        // The volume is scratch again.
        assert_eq!(lib.with_cartridge(tape, |c| c.bytes_written()).unwrap(), 0);
        // Survivors recall bit-identically from their new volume.
        let mut t = report.end;
        for (&ino, content) in inos.iter().zip(&contents).skip(6) {
            t = hsm
                .recall_file(ino, NodeId(1), DataPath::LanFree, t, None)
                .unwrap();
            let got = pfs.vfs().peek_content(ino).unwrap();
            assert!(got.eq_content(content));
        }
    }

    /// Damaged records are dropped as data loss — unless a copy group
    /// absorbs the loss, in which case recall transparently survives.
    #[test]
    fn damage_is_lost_without_copies_survives_with() {
        // Without copies.
        let hsm = setup(PlacementPolicy::Single);
        let pfs = hsm.pfs().clone();
        let ino = pfs
            .create_file("/f", 0, Content::synthetic(1, 1_000_000))
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
        let addr = hsm.server().get(objid).unwrap().addr;
        hsm.server().library().damage_record(addr).unwrap();
        let report = reclaim_volume(hsm.server(), addr.tape, t).unwrap();
        assert_eq!(report.lost_objects, vec![objid]);
        assert!(report.erased);
        assert!(matches!(
            hsm.recall_file(ino, NodeId(0), DataPath::LanFree, report.end, None),
            Err(HsmError::NoSuchObject(_))
        ));

        // With a second copy: the same damage is absorbed.
        let hsm = setup(PlacementPolicy::Mirror { copies: 2 });
        let pfs = hsm.pfs().clone();
        let content = Content::synthetic(2, 1_000_000);
        let ino = pfs.create_file("/g", 0, content.clone()).unwrap();
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
        let addr = hsm.server().get(objid).unwrap().addr;
        let copies = hsm.server().copies_of(objid);
        assert_eq!(copies.len(), 1);
        assert_ne!(
            hsm.server().get(copies[0]).unwrap().addr.tape,
            addr.tape,
            "copy must live on a different volume"
        );
        hsm.server().library().damage_record(addr).unwrap();
        let t2 = hsm
            .recall_file(ino, NodeId(1), DataPath::LanFree, t, None)
            .unwrap();
        assert!(t2 > t);
        let got = pfs.vfs().peek_content(ino).unwrap();
        assert!(got.eq_content(&content));
    }

    #[test]
    fn reclaim_eligible_sweeps_by_threshold() {
        let hsm = setup(PlacementPolicy::Single);
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        for i in 0..4u64 {
            let ino = pfs
                .create_file(&format!("/f{i}"), 0, Content::synthetic(i, 1_000_000))
                .unwrap();
            let (objid, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .unwrap();
            cursor = t;
            if i < 3 {
                cursor = hsm.server().delete_object(objid, cursor).unwrap();
                pfs.unlink(&format!("/f{i}")).unwrap();
            }
        }
        let reports = reclaim_eligible(hsm.server(), 0.5, cursor).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].1.erased);
        // Nothing is eligible afterwards.
        assert!(reclaim_eligible(hsm.server(), 0.5, reports[0].1.end)
            .unwrap()
            .is_empty());
    }
}
