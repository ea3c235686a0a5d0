//! T-ORDER (§4.1.2-2, §4.2.5): tape-ordered recall vs unordered recall.
//!
//! Paper datum: when restoring many midsize files, lining each tape's
//! files up by ascending sequence number (via the indexed MySQL replica of
//! the TSM DB) lets the volume read front-to-back and "drastically
//! reduces tape drive thrashing overhead". PFTool sorts the TapeCQs;
//! the baseline processes files in discovery order.
//!
//! Full-stack run: files are archived, migrated to tape, then copied back
//! with `pfcp` with tape ordering on and off.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_fuse::ArchiveFuse;
use copra_hsm::{DataPath, Hsm};
use copra_metadb::TsmCatalog;
use copra_pfs::PfsBuilder;
use copra_pftool::{pfcp, FsView, PftoolConfig};
use copra_simtime::SimInstant;
use copra_tape::TapeTiming;
use copra_vfs::Content;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    files: usize,
    file_mb: u64,
    unordered_secs: f64,
    unordered_locates: u64,
    ordered_secs: f64,
    ordered_locates: u64,
    speedup: f64,
}

fn run(cli: &BenchCli, files: usize, file_mb: u64, ordering: bool) -> (f64, u64, Hsm) {
    let hsm = cli.hsm_rig(4, 2, 8, 8, TapeTiming::lto4());
    let archive = hsm.pfs().clone();
    let clock = archive.clock().clone();
    let cluster = hsm.cluster().clone();
    let scratch = PfsBuilder::scratch("scratch", clock.clone(), 8).build();
    let fuse = ArchiveFuse::paper_defaults(archive.clone());
    let catalog = Arc::new(TsmCatalog::new());

    // Archive the files in one order…
    archive.mkdir_p("/arch").unwrap();
    let mut cursor = SimInstant::EPOCH;
    let n = files as u64;
    for i in 0..n {
        let ino = archive
            .create_file(
                &format!("/arch/f{i:04}.dat"),
                0,
                Content::synthetic(i, file_mb * 1_000_000),
            )
            .unwrap();
        let (_, t) = hsm
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }
    clock.advance_to(cursor);
    hsm.server().export(&catalog);
    // …then the directory walk discovers them in name order, but we
    // scramble retrieval order by renaming so names no longer follow tape
    // order.
    for i in 0..n {
        let scrambled = (i * 37 + 11) % n;
        archive
            .rename(
                &format!("/arch/f{i:04}.dat"),
                &format!("/arch/g{scrambled:04}_{i}.dat"),
            )
            .unwrap();
    }

    let archive_view = FsView::archive(archive, fuse, hsm.clone(), catalog, cluster.clone());
    let scratch_view = FsView::plain(scratch, cluster);
    let config = PftoolConfig {
        tape_ordering: ordering,
        tape_procs: 2,
        workers: 8,
        ..PftoolConfig::test_small()
    };
    let locates_before = hsm.server().library().stats().totals.locates;
    let report = pfcp(
        &archive_view,
        "/arch",
        &scratch_view,
        "/restore",
        &config,
        &[],
    );
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    assert_eq!(report.stats.tape_restores as usize, files);
    let locates = hsm.server().library().stats().totals.locates - locates_before;
    (report.stats.sim_seconds(), locates, hsm)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for (files, file_mb) in [(16usize, 200u64), (32, 100), (64, 50)] {
        let (unordered_secs, unordered_locates, _) = run(&cli, files, file_mb, false);
        let (ordered_secs, ordered_locates, hsm) = run(&cli, files, file_mb, true);
        rig = Some(hsm);
        rows.push(Row {
            files,
            file_mb,
            unordered_secs,
            unordered_locates,
            ordered_secs,
            ordered_locates,
            speedup: unordered_secs / ordered_secs.max(1e-9),
        });
    }
    print_table(
        "T-ORDER (§4.1.2-2): restore via pfcp, tape-seq-ordered vs discovery order",
        &[
            "files",
            "MB/file",
            "unordered s",
            "locates",
            "ordered s",
            "locates",
            "speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.files.to_string(),
                    r.file_mb.to_string(),
                    format!("{:.0}", r.unordered_secs),
                    r.unordered_locates.to_string(),
                    format!("{:.0}", r.ordered_secs),
                    r.ordered_locates.to_string(),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n  Paper: sorting by (tape id, seq) enforces sequential reads and\n  'drastically reduce[s] tape drive thrashing overhead'.");
    write_json("tbl_order", &rows);
    cli.finish(&rig);
}
