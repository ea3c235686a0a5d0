//! T-RESTART (§4.5): restart-able file transfer.
//!
//! Paper datum: "what about restarting a 40 Terabyte file, we don't want
//! to start it from the beginning … we mark regular file chunks or FUSE
//! file chunks as good or bad so that we don't have to re-send known good
//! chunks."
//!
//! We transfer one very large file, kill the run after a fraction f of its
//! chunks have landed, then restart with chunk marking on and (baseline)
//! off, and report the bytes re-sent.

use copra_bench::{print_table, write_json, BenchCli};
use copra_core::{ArchiveSystem, SystemConfig};
use copra_pftool::PftoolConfig;
use copra_vfs::{ChunkMark, Content};
use serde::Serialize;

// 120 GB stands in for the paper's 40 TB case: it is past the rig's
// 100 GB fuse threshold, so it is chunk-marked exactly as the monster
// files were (same chunk arithmetic, ~300x fewer descriptors).
const FILE_GB: u64 = 120;

#[derive(Serialize)]
struct Row {
    failed_at_pct: u64,
    resent_with_marking_gb: f64,
    resent_without_gb: f64,
    saved_pct: f64,
}

fn run(cli: &BenchCli, failed_fraction: f64, marking: bool) -> (f64, ArchiveSystem) {
    let sys = cli.system(SystemConfig::roadrunner());
    let total = FILE_GB * 1_000_000_000;
    sys.scratch().mkdir_p("/src").unwrap();
    sys.scratch()
        .create_file("/src/huge.dat", 0, Content::synthetic(3, total))
        .unwrap();
    let config = PftoolConfig {
        workers: 8,
        tape_procs: 0,
        restart: marking,
        ..PftoolConfig::default()
    };
    // First transfer: complete it, then simulate the mid-flight failure by
    // deleting the chunks that "hadn't arrived yet" (deterministic: the
    // tail fraction) and corrupting the last surviving chunk (a partial
    // write at the moment of failure).
    let first = sys.archive_tree("/src", "/dst", &config);
    assert!(first.stats.ok(), "{:?}", first.stats.errors);
    let fuse = sys.fuse();
    assert!(fuse.is_chunked("/dst/huge.dat").unwrap());
    let chunks = fuse.chunks("/dst/huge.dat").unwrap();
    let survive = ((chunks.len() as f64) * failed_fraction).floor() as usize;
    for c in &chunks[survive..] {
        sys.archive().unlink(&c.path).unwrap();
    }
    if survive > 0 {
        let mark = ChunkMark::Chunk { fingerprint: 0 };
        let victim = chunks[survive - 1].ino;
        sys.archive().vfs().set_chunk_mark(victim, mark).unwrap();
    }
    // Restart.
    let second = sys.archive_tree("/src", "/dst", &config);
    assert!(second.stats.ok(), "{:?}", second.stats.errors);
    // Whatever the strategy, the result must be complete and correct.
    match fuse.read_file("/dst/huge.dat").unwrap() {
        copra_fuse::FuseRead::Data(c) => {
            assert_eq!(c.len(), total);
            assert!(c.eq_content(&Content::synthetic(3, total)));
        }
        other => panic!("{other:?}"),
    }
    (second.stats.bytes as f64 / 1e9, sys)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for pct in [25u64, 50, 75] {
        let f = pct as f64 / 100.0;
        let (with_marking, _) = run(&cli, f, true);
        let (without, sys) = run(&cli, f, false);
        rig = Some(sys);
        rows.push(Row {
            failed_at_pct: pct,
            resent_with_marking_gb: with_marking,
            resent_without_gb: without,
            saved_pct: (1.0 - with_marking / without.max(1e-9)) * 100.0,
        });
    }
    print_table(
        &format!("T-RESTART (§4.5): {FILE_GB} GB transfer killed at f%, then restarted"),
        &[
            "failed at %",
            "resent GB (marking)",
            "resent GB (naive)",
            "saved %",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.failed_at_pct.to_string(),
                    format!("{:.0}", r.resent_with_marking_gb),
                    format!("{:.0}", r.resent_without_gb),
                    format!("{:.0}%", r.saved_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n  Paper: chunk good/bad marking means only unsent (and the one\n  partially-written) chunk(s) are re-sent — 'a unique incremental parallel\n  archive feature'.");
    write_json("tbl_restart", &rows);
    cli.finish(&rig);
}
