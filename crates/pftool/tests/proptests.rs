//! Property test: for arbitrary generated trees, `pfcp` produces a
//! destination that `pfcm` certifies identical, with exact file/byte
//! accounting — across worker counts and chunking thresholds.

use copra_cluster::FtaCluster;
use copra_pfs::PfsBuilder;
use copra_pftool::{pfcm, pfcp, FsView, PftoolConfig};
use copra_simtime::{Clock, DataSize};
use copra_vfs::Content;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GenFile {
    dir: u8,
    name: String,
    size: u32,
    seed: u64,
}

fn tree() -> impl Strategy<Value = Vec<GenFile>> {
    prop::collection::vec(
        (0u8..6, "[a-e]{1,4}", 0u32..3_000_000, any::<u64>()).prop_map(
            |(dir, name, size, seed)| GenFile {
                dir,
                name,
                size,
                seed,
            },
        ),
        1..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pfcp_then_pfcm_is_identity(
        files in tree(),
        workers in 1usize..5,
        chunk_kb in 64u64..4_096,
    ) {
        let clock = Clock::new();
        let cluster = FtaCluster::new(2);
        let src_pfs = PfsBuilder::scratch("src", clock.clone(), 4).build();
        let dst_pfs = PfsBuilder::scratch("dst", clock.clone(), 4).build();

        let mut expected_files = 0u64;
        let mut expected_bytes = 0u64;
        let mut seen = std::collections::HashSet::new();
        for f in &files {
            let dir = format!("/data/d{}", f.dir);
            let path = format!("{dir}/{}", f.name);
            if !seen.insert(path.clone()) {
                continue; // duplicate name in same dir: skip
            }
            src_pfs.mkdir_p(&dir).unwrap();
            src_pfs
                .create_file(&path, 0, Content::synthetic(f.seed, f.size as u64))
                .unwrap();
            expected_files += 1;
            expected_bytes += f.size as u64;
        }

        let src = FsView::plain(src_pfs.clone(), cluster.clone());
        let dst = FsView::plain(dst_pfs.clone(), cluster);
        let config = PftoolConfig {
            workers,
            readdir_procs: 1,
            tape_procs: 0,
            parallel_copy_threshold: DataSize::kb(chunk_kb * 4),
            copy_chunk: DataSize::kb(chunk_kb),
            ..PftoolConfig::default()
        };
        let report = pfcp(&src, "/data", &dst, "/copy", &config, &[]);
        prop_assert!(report.stats.ok(), "{:?}", report.stats.errors);
        prop_assert_eq!(report.stats.files, expected_files);
        prop_assert_eq!(report.stats.bytes, expected_bytes);

        let cmp = pfcm(&src, "/data", &dst, "/copy", &config, &[]);
        prop_assert!(cmp.identical(), "mismatches: {:?}", cmp.mismatches);
        prop_assert_eq!(cmp.stats.files, expected_files);

        // Total bytes on the destination namespace agree.
        prop_assert_eq!(dst_pfs.vfs().total_bytes(), expected_bytes);
    }
}
