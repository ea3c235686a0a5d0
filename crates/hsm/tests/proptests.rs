//! Property tests: HSM migrate/recall is an identity on file content, for
//! arbitrary file sets, node choices and punch decisions — including
//! aggregated containers.

use copra_cluster::{ClusterConfig, FtaCluster, NodeId};
use copra_hsm::aggregate::migrate_aggregated;
use copra_hsm::{DataPath, Hsm, RecallPolicy, RecallRequest, TsmServer};
use copra_pfs::{HsmState, PfsBuilder, PoolConfig};
use copra_simtime::{Clock, DataSize, SimInstant};
use copra_tape::{TapeLibrary, TapeTiming};
use copra_vfs::Content;
use proptest::prelude::*;

fn setup(nodes: usize) -> Hsm {
    let pfs = PfsBuilder::new("archive", Clock::new())
        .pool(PoolConfig::fast_disk("fast", 4, DataSize::tb(100)))
        .build();
    let cluster = FtaCluster::new(ClusterConfig::tiny(nodes));
    let server = TsmServer::roadrunner(TapeLibrary::new(3, 16, TapeTiming::lto4()));
    Hsm::new(pfs, server, cluster)
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
        let mut inos = Vec::new();
        let mut contents = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let c = Content::synthetic(i as u64, *size);
            let ino = pfs.create_file(&format!("/m{i:02}"), 0, c.clone()).unwrap();
            inos.push(ino);
            contents.push(c);
        }
        let out = migrate_aggregated(
            &hsm,
            &inos,
            NodeId(0),
            DataPath::LanFree,
            DataSize::kb(cap_kb),
            SimInstant::EPOCH,
            true,
        )
        .unwrap();
        prop_assert_eq!(out.members.len(), inos.len());
        prop_assert!(out.containers >= 1 && out.containers <= inos.len());
        // DB: one member row per file plus one container row per container.
        prop_assert_eq!(hsm.server().db_len(), inos.len() + out.containers);
        // Recall a pseudo-random subset individually.
        let mut cursor = out.end;
        for (i, (&ino, content)) in inos.iter().zip(&contents).enumerate() {
            if i % 2 == 0 {
                cursor = hsm.recall_file(ino, NodeId(1), DataPath::LanFree, cursor, None).unwrap();
                let got = pfs.vfs().peek_content(ino).unwrap();
                prop_assert!(got.eq_content(content), "member {i} corrupted");
            }
        }
    }
}
