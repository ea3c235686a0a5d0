//! Property tests: HSM migrate/recall is an identity on file content, for
//! arbitrary file sets, node choices and punch decisions — including
//! aggregated containers; and the incremental catalog export matches a
//! full-pass export under arbitrary server and catalog mutations.

use copra_cluster::{FtaCluster, NodeId};
use copra_hsm::aggregate::migrate_aggregated;
use copra_hsm::{
    DataPath, Hsm, HsmError, ObjectKind, PlacementPolicy, RecallPolicy, RecallRequest, TsmObject,
    TsmServer,
};
use copra_metadb::{TsmCatalog, TsmObjectRow};
use copra_obs::Registry;
use copra_pfs::{HsmState, PfsBuilder, PoolConfig};
use copra_simtime::{Clock, DataSize, SimInstant};
use copra_tape::{DriveId, TapeAddress, TapeFleet, TapeId, TapeTiming};
use copra_vfs::Content;
use proptest::prelude::*;

fn setup(nodes: usize) -> Hsm {
    let pfs = PfsBuilder::new("archive", Clock::new())
        .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
        .build();
    let cluster = FtaCluster::new(nodes);
    let server = TsmServer::roadrunner(TapeFleet::new(
        1,
        3,
        16,
        TapeTiming::lto4(),
        Registry::new(),
    ));
    Hsm::new(pfs, server, cluster, PlacementPolicy::Single)
}

fn export_row(obj: &TsmObject) -> TsmObjectRow {
    TsmObjectRow {
        objid: obj.objid,
        path: obj.path.clone(),
        fs_ino: obj.fs_ino,
        tape: obj.addr.tape.0,
        seq: obj.addr.seq,
        len: obj.len,
        stored_at: obj.stored_at,
    }
}

/// The full-pass export: upsert every non-container object whose row
/// differs, then forget every row whose object is gone. Returns rows
/// written.
fn reference_export(server: &TsmServer, catalog: &TsmCatalog) -> usize {
    let mut written = 0;
    for obj in server.objects() {
        if matches!(obj.kind, ObjectKind::Container { .. }) {
            continue;
        }
        let row = export_row(&obj);
        if catalog.lookup(obj.objid).as_ref() != Some(&row) {
            catalog.record(row);
            written += 1;
        }
    }
    for row in catalog.dump() {
        if !server.contains(row.objid) {
            catalog.forget(row.objid);
        }
    }
    written
}

/// A server on a one-drive library with tape 0 mounted, so every
/// registered object owns a real tape record.
struct ExportRig {
    server: TsmServer,
    cursor: SimInstant,
}

impl ExportRig {
    fn new() -> Self {
        let server =
            TsmServer::roadrunner(TapeFleet::new(1, 1, 2, TapeTiming::lto4(), Registry::new()));
        let cursor = server
            .library()
            .mount(DriveId(0), TapeId(0), SimInstant::EPOCH)
            .unwrap();
        ExportRig { server, cursor }
    }

    fn write_record(&mut self, objid: u64, len: u64) -> TapeAddress {
        let (addr, end) = self
            .server
            .library()
            .write_object(
                DriveId(0),
                0,
                objid,
                Content::synthetic(objid, len),
                self.cursor,
            )
            .unwrap();
        self.cursor = end;
        addr
    }

    fn register(&mut self, kind: ObjectKind, addr: TapeAddress, len: u64) -> u64 {
        let objid = self.server.alloc_objid();
        self.server.register(TsmObject {
            objid,
            path: format!("/p{objid}"),
            fs_ino: objid + 1_000,
            addr,
            len,
            stored_at: self.cursor,
            kind,
        });
        objid
    }

    /// The `pick`-th live object, if any.
    fn pick(&self, pick: u64) -> Option<TsmObject> {
        let objects = self.server.objects();
        (!objects.is_empty()).then(|| objects[pick as usize % objects.len()].clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// migrate(punch?) → recall → content identical; residency states
    /// follow the Resident → Premigrated → Migrated → Premigrated cycle.
    #[test]
    fn migrate_recall_identity(
        files in prop::collection::vec((1u64..4_000_000, 0u8..3, any::<bool>()), 1..12),
        policy in prop_oneof![Just(RecallPolicy::Scatter), Just(RecallPolicy::TapeAffinity)],
    ) {
        let hsm = setup(3);
        let pfs = hsm.pfs().clone();
        let mut cursor = SimInstant::EPOCH;
        let mut expected = Vec::new();
        for (i, (size, node, punch)) in files.iter().enumerate() {
            let path = format!("/f{i:03}");
            let content = Content::synthetic(i as u64 + 7, *size);
            let ino = pfs.create_file(&path, 0, content.clone()).unwrap();
            let (_, t) = hsm
                .migrate_file(ino, NodeId(*node as u32), DataPath::LanFree, cursor, *punch, None)
                .unwrap();
            cursor = t;
            let state = pfs.hsm_state(ino).unwrap();
            prop_assert_eq!(
                state,
                if *punch { HsmState::Migrated } else { HsmState::Premigrated }
            );
            expected.push((ino, content, *punch));
        }
        // Recall the punched ones in a batch.
        let requests: Vec<RecallRequest> = expected
            .iter()
            .filter(|(_, _, punched)| *punched)
            .map(|(ino, _, _)| RecallRequest { ino: *ino })
            .collect();
        if !requests.is_empty() {
            let out = hsm.recall_batch(&requests, policy, DataPath::LanFree, cursor).unwrap();
            prop_assert_eq!(out.completions.len(), requests.len());
            prop_assert!(out.makespan >= cursor);
        }
        // Everything is readable and identical.
        for (ino, content, _) in &expected {
            let got = pfs.vfs().peek_content(*ino).unwrap();
            prop_assert!(got.eq_content(content));
            prop_assert!(pfs.hsm_state(*ino).unwrap().on_disk());
            prop_assert!(pfs.hsm_state(*ino).unwrap().on_tape());
        }
        // Server DB has exactly one object per file.
        prop_assert_eq!(hsm.server().db_len(), expected.len());
    }

    /// Aggregated migration with arbitrary container caps preserves every
    /// member's bytes through individual recalls.
    #[test]
    fn aggregation_identity(
        sizes in prop::collection::vec(1u64..600_000, 2..16),
        cap_kb in 1u64..2_000,
    ) {
        let hsm = setup(2);
        let pfs = hsm.pfs().clone();
        let paths: Vec<String> = (0..sizes.len()).map(|i| format!("/m{i:02}")).collect();
        let mut files = Vec::new();
        let mut contents = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let c = Content::synthetic(i as u64, *size);
            let ino = pfs.create_file(&paths[i], 0, c.clone()).unwrap();
            files.push((ino, paths[i].as_str()));
            contents.push(c);
        }
        let out = migrate_aggregated(
            &hsm,
            &files,
            NodeId(0),
            DataPath::LanFree,
            DataSize::kb(cap_kb),
            SimInstant::EPOCH,
            true,
        )
        .unwrap();
        prop_assert_eq!(out.members.len(), files.len());
        prop_assert!(out.containers >= 1 && out.containers <= files.len());
        // DB: one member row per file plus one container row per container.
        prop_assert_eq!(hsm.server().db_len(), files.len() + out.containers);
        // Recall a pseudo-random subset individually.
        let mut cursor = out.end;
        for (i, (&(ino, _), content)) in files.iter().zip(&contents).enumerate() {
            if i % 2 == 0 {
                cursor = hsm.recall_file(ino, NodeId(1), DataPath::LanFree, cursor, None).unwrap();
                let got = pfs.vfs().peek_content(ino).unwrap();
                prop_assert!(got.eq_content(content), "member {i} corrupted");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `TsmServer::export` returns the same count and leaves the same rows
    /// and generation as the full-pass reference after every export, for
    /// any mix of registers (simple, containers with members, rewrites),
    /// `forget_object`, `rebase_addr`, `delete_object` (last-member
    /// cascade, members-remain refusal), external catalog writes, and
    /// exports alternating between two catalogs.
    #[test]
    fn incremental_export_matches_full_pass(
        ops in prop::collection::vec((0u8..20, any::<u64>(), 0u32..4), 1..80),
    ) {
        let mut rig = ExportRig::new();
        // Exported by the server under test, and by the reference.
        let catalogs = [TsmCatalog::new(), TsmCatalog::new()];
        let references = [TsmCatalog::new(), TsmCatalog::new()];
        for (step, &(kind, pick, arg)) in ops.iter().enumerate() {
            let side = (arg % 2) as usize;
            match kind {
                0..=3 => {
                    let addr = rig.write_record(0, 1_000);
                    rig.register(ObjectKind::Simple, addr, 1_000);
                }
                4..=5 => {
                    let members = arg + 1;
                    let len = 1_000 * members as u64;
                    let addr = rig.write_record(0, len);
                    let kind = ObjectKind::Container { member_count: members };
                    let container = rig.register(kind, addr, len);
                    for m in 0..members {
                        let kind = ObjectKind::Member { container, offset: 1_000 * m as u64 };
                        rig.register(kind, addr, 1_000);
                    }
                }
                6 => {
                    // Re-register an existing objid with a changed row
                    // (or, for arg 0, an identical one).
                    if let Some(mut obj) = rig.pick(pick) {
                        obj.len += arg as u64;
                        rig.server.register(obj);
                    }
                }
                7 => {
                    if let Some(obj) = rig.pick(pick) {
                        rig.server.forget_object(obj.objid);
                    }
                }
                8 => {
                    if let Some(obj) = rig.pick(pick) {
                        let new = rig.write_record(obj.objid, obj.len.max(1));
                        prop_assert!(rig.server.rebase_addr(obj.addr, new) >= 1);
                    }
                }
                9..=11 => {
                    if let Some(obj) = rig.pick(pick) {
                        let objid = obj.objid;
                        let member_of = |o: &TsmObject| match o.kind {
                            ObjectKind::Member { container, .. } => container == objid,
                            _ => false,
                        };
                        let members_remain = matches!(obj.kind, ObjectKind::Container { .. })
                            && rig.server.objects().iter().any(member_of);
                        let out = rig.server.delete_object(objid, rig.cursor);
                        if members_remain {
                            prop_assert_eq!(out, Err(HsmError::BadMemberRange { objid }));
                            prop_assert!(rig.server.contains(objid));
                        } else {
                            prop_assert!(out.is_ok(), "step {step}: {out:?}");
                            prop_assert!(!rig.server.contains(objid));
                        }
                    }
                }
                12..=13 => {
                    // External drift: a row for a live, dead or unknown
                    // objid, equal to its export (arg 0) or not.
                    let objid = pick % (rig.server.alloc_objid() + 1);
                    let row = match rig.server.get(objid) {
                        Ok(obj) => TsmObjectRow { seq: obj.addr.seq + arg / 2, ..export_row(&obj) },
                        Err(_) => TsmObjectRow {
                            objid,
                            path: "/stray".into(),
                            fs_ino: 0,
                            tape: 1,
                            seq: arg,
                            len: 1,
                            stored_at: SimInstant::EPOCH,
                        },
                    };
                    catalogs[side].record(row.clone());
                    references[side].record(row);
                }
                14 => {
                    let objid = pick % (rig.server.alloc_objid() + 1);
                    prop_assert_eq!(catalogs[side].forget(objid), references[side].forget(objid));
                }
                _ => {
                    let before = catalogs[side].generation();
                    let ref_before = references[side].generation();
                    let written = rig.server.export(&catalogs[side]);
                    let expected = reference_export(&rig.server, &references[side]);
                    prop_assert_eq!(written, expected, "step {step}: rows written");
                    prop_assert_eq!(
                        catalogs[side].generation() - before,
                        references[side].generation() - ref_before,
                        "step {step}: generation delta"
                    );
                    let (got, want) = (catalogs[side].dump(), references[side].dump());
                    prop_assert_eq!(got, want, "step {step}: rows");
                    prop_assert_eq!(catalogs[side].verify_indexes(), Ok(()));
                }
            }
        }
    }
}
