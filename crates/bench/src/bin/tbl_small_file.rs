//! T-SMALL (§6.1): small-file tape migration collapse and the aggregation
//! fix.
//!
//! Paper datum: a user's millions of 8 MB files migrated at ~4 MB/s per
//! drive instead of the ~100+ MB/s rated LTO-4 streaming speed (an entire
//! weekend on 24 drives); aggregation — bundling small files into large
//! tape transactions — is the known fix, which TSM's backup client had but
//! migration lacked.
//!
//! We migrate N files of each size per drive and report effective MB/s per
//! drive for (a) one-file-one-transaction HSM migration and (b) aggregated
//! migration with 1 GB containers, plus the weekend arithmetic.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_hsm::aggregate::migrate_aggregated;
use copra_hsm::{DataPath, Hsm};
use copra_simtime::{DataSize, SimInstant};
use copra_tape::TapeTiming;
use copra_workloads::{populate, small_file_storm};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    file_size_mb: f64,
    files: usize,
    per_file_mb_s: f64,
    aggregated_mb_s: f64,
    aggregation_speedup: f64,
}

/// Migrate `count` files of `file_size` bytes on a one-node, one-drive
/// rig and return the achieved MB/s with the rig.
fn migrate_rate(cli: &BenchCli, file_size: u64, count: usize, aggregated: bool) -> (f64, Hsm) {
    let hsm = cli.hsm_rig(1, 1, 64, 8, TapeTiming::lto4());
    let tree = small_file_storm(count, file_size, 7);
    populate(hsm.pfs(), "/data", &tree);
    let records = hsm.pfs().scan_records();
    let files: Vec<_> = records.iter().map(|r| (r.ino, r.path.as_str())).collect();
    let start = SimInstant::EPOCH;
    let end = if aggregated {
        migrate_aggregated(
            &hsm,
            &files,
            NodeId(0),
            DataPath::LanFree,
            DataSize::gb(1),
            start,
            true,
        )
        .expect("aggregated migration")
        .end
    } else {
        let mut cursor = start;
        for &(ino, _) in &files {
            let (_, t) = hsm
                .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
                .expect("migration");
            cursor = t;
        }
        cursor
    };
    let rate = copra_bench::mb_per_sec(tree.total_bytes(), start, end);
    (rate, hsm)
}

fn main() {
    let cli = BenchCli::parse();
    let sizes_mb: [(f64, usize); 5] = [
        (0.5, 400),
        (2.0, 300),
        (8.0, 200), // the paper's case
        (64.0, 60),
        (1000.0, 12),
    ];
    let mut rows = Vec::new();
    let mut rig = None;
    for (mb, count) in sizes_mb {
        let size = (mb * 1e6) as u64;
        let (per_file, _) = migrate_rate(&cli, size, count, false);
        let (agg, hsm) = migrate_rate(&cli, size, count, true);
        rig = Some(hsm);
        rows.push(Row {
            file_size_mb: mb,
            files: count,
            per_file_mb_s: per_file,
            aggregated_mb_s: agg,
            aggregation_speedup: agg / per_file.max(1e-9),
        });
    }
    print_table(
        "T-SMALL (§6.1): per-drive migration rate vs file size (LTO-4 rated 120 MB/s)",
        &[
            "file MB",
            "files",
            "1-file/tx MB/s",
            "aggregated MB/s",
            "speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.file_size_mb),
                    r.files.to_string(),
                    format!("{:.1}", r.per_file_mb_s),
                    format!("{:.1}", r.aggregated_mb_s),
                    format!("{:.1}x", r.aggregation_speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let eight = rows.iter().find(|r| r.file_size_mb == 8.0).unwrap();
    println!(
        "\n  Paper: 8 MB files migrate at ~4 MB/s (vs ~100 MB/s rated). Measured: {:.1} MB/s.",
        eight.per_file_mb_s
    );
    // The weekend arithmetic: 2M × 8 MB files on 24 drives.
    let weekend_hours = 2_000_000.0 * 8e6 / (24.0 * eight.per_file_mb_s * 1e6) / 3600.0;
    let agg_hours = 2_000_000.0 * 8e6 / (24.0 * eight.aggregated_mb_s * 1e6) / 3600.0;
    println!(
        "  2M x 8 MB files on 24 drives: {weekend_hours:.0} h per-file (paper: 'an entire weekend'), {agg_hours:.1} h aggregated."
    );
    write_json("tbl_small_file", &rows);
    cli.finish(&rig);
}
