//! T-FUSE (§4.1.2-4): ArchiveFUSE turns N-to-1 into N-to-N.
//!
//! Paper datum: archiving a very large file (>100 GB) onto many tapes hits
//! (a) N-to-1 parallel-I/O overhead and (b) tape's sequential-write
//! constraint — one file is one tape object on ONE drive. Breaking the
//! file into N chunk files lets HSM migrate the chunks to M drives in
//! parallel.
//!
//! We migrate one 200 GB file to tape two ways: as a single object (one
//! drive streams it all) and as fuse chunks spread across the drives by
//! the migrator, for varying drive counts.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_core::{migrate_candidates, MigrationPolicy};
use copra_fuse::ArchiveFuse;
use copra_hsm::{DataPath, Hsm};
use copra_simtime::{DataSize, SimInstant};
use copra_tape::TapeTiming;
use copra_vfs::Content;
use serde::Serialize;

const FILE_GB: u64 = 200;

#[derive(Serialize)]
struct Row {
    drives: usize,
    single_object_secs: f64,
    fuse_nton_secs: f64,
    speedup: f64,
}

/// An HSM rig with one node per drive, and a fuse layer over its archive.
fn setup(cli: &BenchCli, drives: usize) -> (Hsm, ArchiveFuse) {
    // Large-capacity volumes so the single-object case fits on one tape.
    let timing = TapeTiming {
        capacity: DataSize::gb(800),
        ..TapeTiming::lto4()
    };
    let hsm = cli.hsm_rig(drives, drives, 64, 16, timing);
    let fuse = ArchiveFuse::new(hsm.pfs().clone(), DataSize::gb(100), DataSize::gb(10));
    (hsm, fuse)
}

fn single_object(cli: &BenchCli, drives: usize) -> f64 {
    let (hsm, _) = setup(cli, drives);
    let ino = hsm
        .pfs()
        .create_file(
            "/huge.dat",
            0,
            Content::synthetic(1, FILE_GB * 1_000_000_000),
        )
        .unwrap();
    let (_, end) = hsm
        .migrate_file(
            ino,
            NodeId(0),
            DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            None,
        )
        .unwrap();
    end.as_secs_f64()
}

fn fuse_nton(cli: &BenchCli, drives: usize) -> (f64, Hsm) {
    let (hsm, fuse) = setup(cli, drives);
    hsm.pfs().mkdir_p("/data").unwrap();
    fuse.write_file(
        "/data/huge.dat",
        0,
        Content::synthetic(1, FILE_GB * 1_000_000_000),
    )
    .unwrap();
    // Each chunk is an ordinary file; the migrator spreads them over the
    // nodes/drives size-balanced.
    let records = hsm.pfs().scan_records();
    let nodes: Vec<NodeId> = hsm.cluster().nodes().collect();
    let report = migrate_candidates(
        &hsm,
        &records,
        &nodes,
        MigrationPolicy::SizeBalanced,
        DataPath::LanFree,
        SimInstant::EPOCH,
        true,
        None,
    );
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.files, (FILE_GB / 10) as usize);
    (report.makespan.as_secs_f64(), hsm)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for drives in [1usize, 2, 4, 8, 16] {
        let single = single_object(&cli, drives);
        let (nton, hsm) = fuse_nton(&cli, drives);
        rig = Some(hsm);
        rows.push(Row {
            drives,
            single_object_secs: single,
            fuse_nton_secs: nton,
            speedup: single / nton.max(1e-9),
        });
    }
    print_table(
        &format!("T-FUSE (§4.1.2-4): {FILE_GB} GB file to tape, single object vs fuse N-to-N (10 GB chunks)"),
        &["drives", "single-object s", "fuse N-to-N s", "speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.drives.to_string(),
                    format!("{:.0}", r.single_object_secs),
                    format!("{:.0}", r.fuse_nton_secs),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n  Paper: a single object streams to ONE drive regardless of drive\n  count; fuse chunks scale with drives until the disk/SAN path saturates.");
    write_json("tbl_fuse", &rows);
    cli.finish(&rig);
}
