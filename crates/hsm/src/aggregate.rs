//! Small-file aggregation (§6.1).
//!
//! One file per tape transaction collapses throughput for small files (the
//! drive backhitches between every file). The fix the paper points at —
//! "bundling these small files into larger aggregates better suited to
//! getting the tape drive up to full speed" — is implemented here for
//! *migration* (the paper notes TSM's backup client had it but migration
//! did not).

use crate::agent::DataPath;
use crate::error::HsmResult;
use crate::hsm::Hsm;
use copra_cluster::NodeId;
use copra_pfs::{HsmState, PoolId};
use copra_simtime::{DataSize, SimInstant};
use copra_vfs::{Content, FsError, Ino};

/// Outcome of an aggregated migration.
#[derive(Debug, Clone)]
pub struct AggregateOutcome {
    /// (file, member objid) per input file, in order.
    pub members: Vec<(Ino, u64)>,
    /// Number of containers written (= tape transactions).
    pub containers: usize,
    /// Completion instant of the whole batch.
    pub end: SimInstant,
}

/// Migrate `files` as aggregated containers of up to `container_cap` bytes
/// each, via the agent on `node`. Each file is an (ino, path) pair, the
/// path as the LIST policy's record gives it; its member object carries
/// that path. Files must be `Resident`; each becomes `Premigrated` (and
/// `Migrated` when `punch`).
pub fn migrate_aggregated(
    hsm: &Hsm,
    files: &[(Ino, &str)],
    node: NodeId,
    data_path: DataPath,
    container_cap: DataSize,
    ready: SimInstant,
    punch: bool,
) -> HsmResult<AggregateOutcome> {
    assert!(
        !container_cap.is_zero(),
        "container capacity must be positive"
    );
    let pfs = hsm.pfs();
    let tracer = hsm.tracer();
    let root = tracer.root_seq("hsm.migrate_aggregated", ready);
    let root_ctx = root.as_ref().map(|g| g.ctx());
    let mut members = Vec::with_capacity(files.len());
    let mut containers = 0usize;
    let mut cursor = ready;

    // Container payloads: (path, ino, content), moved into the store, and
    // beside them each member's ino and pool.
    let mut batch: Vec<(String, u64, Content)> = Vec::new();
    let mut placed: Vec<(Ino, PoolId)> = Vec::new();
    let mut batch_bytes = 0u64;

    let flush = |batch: &mut Vec<(String, u64, Content)>,
                 placed: &mut Vec<(Ino, PoolId)>,
                 cursor: &mut SimInstant,
                 members: &mut Vec<(Ino, u64)>,
                 containers: &mut usize|
     -> HsmResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // Charge the disk reads for every member, then one tape transaction.
        let w0 = tracer.wall_now_ns();
        let mut t = *cursor;
        for ((_, _, c), &(_, pool)) in batch.iter().zip(placed.iter()) {
            let r = pfs
                .pool(pool)
                .charge_io(*cursor, DataSize::from_bytes(c.len()));
            t = t.max(r.end);
        }
        tracer.record_closed(root_ctx, "hsm.pfs.read", *containers as u64, *cursor, t, w0);
        let w1 = tracer.wall_now_ns();
        let (ids, end) = hsm
            .agent(node)
            .store_container(std::mem::take(batch), t, data_path)?;
        tracer.record_closed(
            root_ctx,
            "hsm.agent.store_container",
            *containers as u64,
            t,
            end,
            w1,
        );
        for ((ino, _), objid) in placed.drain(..).zip(ids) {
            pfs.commit_tape_copy(ino, Some(objid), punch)?;
            members.push((ino, objid));
        }
        *containers += 1;
        *cursor = end;
        Ok(())
    };

    // Every member's state, pool and content, read under one guard.
    let reads = pfs
        .vfs()
        .inspect_batch(files.iter().map(|&(ino, _)| ino), |inode, content| {
            let content = content.ok_or_else(|| FsError::IsADirectory(inode.ino.to_string()))?;
            Ok((
                inode.region.state,
                pfs.tag_pool(inode.pool),
                content.clone(),
            ))
        })?;
    for (&(ino, path), (state, pool, content)) in files.iter().zip(reads) {
        if state != HsmState::Resident {
            return Err(crate::error::HsmError::WrongState {
                ino: ino.0,
                state: state.to_string(),
                needed: "resident".to_string(),
            });
        }
        let len = content.len();
        if batch_bytes + len > container_cap.as_bytes() && !batch.is_empty() {
            flush(
                &mut batch,
                &mut placed,
                &mut cursor,
                &mut members,
                &mut containers,
            )?;
            batch_bytes = 0;
        }
        batch_bytes += len;
        batch.push((path.to_string(), ino.0, content));
        placed.push((ino, pool));
    }
    flush(
        &mut batch,
        &mut placed,
        &mut cursor,
        &mut members,
        &mut containers,
    )?;
    copra_trace::finish_opt(root, cursor);

    Ok(AggregateOutcome {
        members,
        containers,
        end: cursor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hsm::{Hsm, PlacementPolicy};
    use crate::server::TsmServer;
    use copra_cluster::FtaCluster;
    use copra_obs::Registry;
    use copra_pfs::{PfsBuilder, PoolConfig};
    use copra_simtime::Clock;
    use copra_tape::{TapeFleet, TapeTiming};

    fn setup() -> Hsm {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
            .build();
        let cluster = FtaCluster::new(2);
        let server =
            TsmServer::roadrunner(TapeFleet::new(1, 2, 8, TapeTiming::lto4(), Registry::new()));
        Hsm::new(pfs, server, cluster, PlacementPolicy::Single)
    }

    /// `count` files of `size` bytes, each with the path it was created at.
    fn make_files(hsm: &Hsm, count: u64, size: u64) -> Vec<(Ino, String)> {
        let pfs = hsm.pfs();
        pfs.mkdir_p("/small").unwrap();
        (0..count)
            .map(|i| {
                let path = format!("/small/f{i:04}");
                let ino = pfs
                    .create_file(&path, 0, Content::synthetic(i, size))
                    .unwrap();
                (ino, path)
            })
            .collect()
    }

    fn listed(files: &[(Ino, String)]) -> Vec<(Ino, &str)> {
        files
            .iter()
            .map(|(ino, path)| (*ino, path.as_str()))
            .collect()
    }

    /// Two aggregated migrations fill one container each: every member row
    /// carries its file's path, length and offset, and the container and
    /// fill counts match.
    #[test]
    fn container_members_carry_path_length_and_offset() {
        use crate::object::ObjectKind;
        use copra_obs::EventKind;
        let hsm = setup();
        let pfs = hsm.pfs();
        pfs.mkdir_p("/mix").unwrap();
        let sizes = [1u64 << 20, 3 << 20, 7, 2 << 20, 5 << 20];
        let paths: Vec<String> = (0..sizes.len()).map(|i| format!("/mix/f{i}")).collect();
        let files: Vec<Ino> = sizes
            .iter()
            .zip(&paths)
            .enumerate()
            .map(|(i, (&len, path))| {
                let content = Content::synthetic(i as u64, len);
                pfs.create_file(path, 0, content).unwrap()
            })
            .collect();
        let listed: Vec<(Ino, &str)> = files
            .iter()
            .copied()
            .zip(paths.iter().map(String::as_str))
            .collect();
        let cap = DataSize::mib(8);
        let first = migrate_aggregated(
            &hsm,
            &listed[..3],
            NodeId(0),
            DataPath::LanFree,
            cap,
            SimInstant::EPOCH,
            true,
        )
        .unwrap();
        let migrated = migrate_aggregated(
            &hsm,
            &listed[3..],
            NodeId(1),
            DataPath::LanFree,
            cap,
            first.end,
            true,
        )
        .unwrap();
        assert_eq!((first.containers, migrated.containers), (1, 1));
        let server = hsm.server();
        for (members, count) in [(&first.members, 3), (&migrated.members, 2)] {
            let mut offset = 0;
            let mut container = None;
            for &(ino, objid) in members.iter() {
                let obj = server.get(objid).unwrap();
                let i = files.iter().position(|&f| f == ino).unwrap();
                assert_eq!(obj.path, format!("/mix/f{i}"));
                assert_eq!((obj.fs_ino, obj.len), (ino.0, sizes[i]));
                let ObjectKind::Member {
                    container: c,
                    offset: o,
                } = obj.kind
                else {
                    panic!("{objid} is not a container member: {:?}", obj.kind)
                };
                assert_eq!(o, offset);
                offset += sizes[i];
                container = Some(c);
            }
            let whole = server.get(container.unwrap()).unwrap();
            assert_eq!(
                whole.kind,
                ObjectKind::Container {
                    member_count: count
                }
            );
            assert_eq!(whole.len, offset);
        }
        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("hsm.container_fills"), 2);
        let fills: Vec<u32> = snap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ContainerFill { members, .. } => Some(members),
                _ => None,
            })
            .collect();
        assert_eq!(fills, vec![3, 2]);
        // The moved payloads are what the members hold.
        let mut ready = migrated.end;
        for i in [1, 4] {
            let ino = files[i];
            ready = hsm
                .recall_file(ino, NodeId(0), DataPath::LanFree, ready, None)
                .unwrap();
            let content = pfs.vfs().peek_content(ino).unwrap();
            assert!(content.eq_content(&Content::synthetic(i as u64, sizes[i])));
        }
    }

    #[test]
    fn aggregation_packs_files_into_few_transactions() {
        let hsm = setup();
        let files = make_files(&hsm, 100, 8 << 20); // 100 × 8 MiB
        let out = migrate_aggregated(
            &hsm,
            &listed(&files),
            NodeId(0),
            DataPath::LanFree,
            DataSize::mib(256),
            SimInstant::EPOCH,
            true,
        )
        .unwrap();
        assert_eq!(out.members.len(), 100);
        // 256 MiB containers hold 32 files → 4 containers (not 100 tx)
        assert_eq!(out.containers, 4);
        let stats = hsm.server().library().stats();
        assert_eq!(stats.totals.backhitches, 4);
        // every file is a stub now
        for &(ino, _) in &files {
            assert_eq!(hsm.pfs().hsm_state(ino).unwrap(), HsmState::Migrated);
        }
    }

    #[test]
    fn aggregated_files_recall_individually_with_correct_bytes() {
        let hsm = setup();
        let files = make_files(&hsm, 10, 1 << 20);
        let originals: Vec<Content> = files
            .iter()
            .map(|&(ino, _)| {
                // read before migration (still resident)
                hsm.pfs().vfs().peek_content(ino).unwrap()
            })
            .collect();
        migrate_aggregated(
            &hsm,
            &listed(&files),
            NodeId(0),
            DataPath::LanFree,
            DataSize::mib(4),
            SimInstant::EPOCH,
            true,
        )
        .unwrap();
        // recall the 7th file alone
        let ino = files[7].0;
        let t = hsm
            .recall_file(
                ino,
                NodeId(1),
                DataPath::LanFree,
                SimInstant::from_secs(1000),
                None,
            )
            .unwrap();
        assert!(t > SimInstant::from_secs(1000));
        let back = hsm.pfs().vfs().peek_content(ino).unwrap();
        assert!(back.eq_content(&originals[7]));
    }

    #[test]
    fn aggregation_is_faster_than_one_file_per_transaction() {
        // 200 × 8 MB files, one drive: per-transaction migration pays 200
        // backhitches; aggregated pays a handful.
        let per_file = {
            let hsm = setup();
            let files = make_files(&hsm, 200, 8 << 20);
            let mut cursor = SimInstant::EPOCH;
            for &(ino, _) in &files {
                let (_, t) = hsm
                    .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                    .unwrap();
                cursor = t;
            }
            cursor
        };
        let aggregated = {
            let hsm = setup();
            let files = make_files(&hsm, 200, 8 << 20);
            migrate_aggregated(
                &hsm,
                &listed(&files),
                NodeId(0),
                DataPath::LanFree,
                DataSize::gib(1),
                SimInstant::EPOCH,
                true,
            )
            .unwrap()
            .end
        };
        let speedup = per_file.as_secs_f64() / aggregated.as_secs_f64();
        assert!(speedup > 3.0, "aggregation speedup {speedup:.1}x");
    }

    #[test]
    fn non_resident_file_rejected() {
        let hsm = setup();
        let files = make_files(&hsm, 2, 1000);
        hsm.migrate_file(
            files[0].0,
            NodeId(0),
            DataPath::LanFree,
            SimInstant::EPOCH,
            false,
            None,
        )
        .unwrap();
        assert!(migrate_aggregated(
            &hsm,
            &listed(&files),
            NodeId(0),
            DataPath::LanFree,
            DataSize::mib(1),
            SimInstant::EPOCH,
            false,
        )
        .is_err());
    }

    #[test]
    fn oversized_single_file_still_ships() {
        let hsm = setup();
        let pfs = hsm.pfs();
        let big = pfs
            .create_file("/big", 0, Content::synthetic(1, 10 << 20))
            .unwrap();
        let out = migrate_aggregated(
            &hsm,
            &[(big, "/big")],
            NodeId(0),
            DataPath::LanFree,
            DataSize::mib(1), // cap smaller than the file
            SimInstant::EPOCH,
            false,
        )
        .unwrap();
        assert_eq!(out.containers, 1);
        assert_eq!(out.members.len(), 1);
    }
}
