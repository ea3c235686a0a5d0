//! Restart-able file transfer (§4.5).
//!
//! "What about restarting a 40 Terabyte file? We don't want to start it
//! from the beginning." A very large file lands in the archive as
//! ArchiveFUSE chunks, each carrying a content fingerprint; after a failed
//! transfer, a restarted `pfcp --restart` re-sends only the chunks that
//! are missing or whose fingerprints don't match.
//!
//! Run with: `cargo run --release --example restartable_transfer`

use copra::core::{ArchiveSystem, SystemConfig};
use copra::fuse::FuseRead;
use copra::pftool::PftoolConfig;
use copra::vfs::{ChunkMark, Content};

fn main() {
    let sys = ArchiveSystem::new(SystemConfig::test_small());
    // 1 GB stands in for the 40 TB monster: with the test rig's 50 MB fuse
    // chunks it becomes 20 chunk files, same arithmetic.
    let total: u64 = 1_000_000_000;
    sys.scratch().mkdir_p("/src").unwrap();
    sys.scratch()
        .create_file("/src/checkpoint.bin", 0, Content::synthetic(40, total))
        .unwrap();

    let config = PftoolConfig {
        restart: true,
        ..PftoolConfig::test_small()
    };

    // First transfer completes...
    let first = sys.archive_tree("/src", "/archive", &config);
    assert!(first.stats.ok());
    let chunks = sys.fuse().chunks("/archive/checkpoint.bin").unwrap();
    println!(
        "first transfer: {:.0} MB in {} chunks",
        first.stats.bytes as f64 / 1e6,
        chunks.len()
    );

    // ... then we simulate the §4.5 failure: the network died mid-run, so
    // the tail chunks never arrived and the last one landed corrupt.
    let survive = chunks.len() / 2;
    for c in &chunks[survive..] {
        sys.archive().unlink(&c.path).unwrap();
    }
    let wounded = chunks[survive - 1].ino;
    let mark = ChunkMark::Chunk { fingerprint: 0 };
    sys.archive().vfs().set_chunk_mark(wounded, mark).unwrap();
    println!(
        "failure injected: {} tail chunks lost, 1 chunk corrupted",
        chunks.len() - survive
    );

    // Restart: only the bad/missing chunks move again.
    let second = sys.archive_tree("/src", "/archive", &config);
    assert!(second.stats.ok());
    println!(
        "restart: re-sent {:.0} MB, skipped {:.0} MB ({}% saved)",
        second.stats.bytes as f64 / 1e6,
        second.stats.skipped_bytes as f64 / 1e6,
        100 * second.stats.skipped_bytes / total
    );

    // And the result is bit-perfect.
    match sys.fuse().read_file("/archive/checkpoint.bin").unwrap() {
        FuseRead::Data(c) => {
            assert!(c.eq_content(&Content::synthetic(40, total)));
            println!("verification: destination matches source exactly");
        }
        other => panic!("unexpected read outcome: {other:?}"),
    }

    // The naive baseline (no chunk marking) would have re-sent everything.
    let naive = PftoolConfig {
        restart: false,
        ..PftoolConfig::test_small()
    };
    let third = sys.archive_tree("/src", "/archive", &naive);
    println!(
        "naive re-run (no marking): re-sent {:.0} MB — the whole file again",
        third.stats.bytes as f64 / 1e6
    );
}
