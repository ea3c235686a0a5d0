//! T-CHUNK (§4.1.2-3): single-large-file N-way chunked parallel copy.
//!
//! Paper datum: files of 10–100 GB are divided into N equal sub-chunks
//! copied by N workers concurrently — "a typical parallel N-to-1 data
//! copy" exploiting the parallel file system's concurrent read/write.
//!
//! We copy one file of each size scratch→archive with 1..32 workers and
//! report the achieved rate.

use copra_bench::{print_table, write_json, BenchCli};
use copra_core::{ArchiveSystem, SystemConfig};
use copra_pftool::PftoolConfig;
use copra_simtime::DataSize;
use copra_vfs::Content;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    file_gb: u64,
    workers: usize,
    secs: f64,
    mb_s: f64,
    speedup_vs_1: f64,
}

fn run(cli: &BenchCli, file_gb: u64, workers: usize) -> (f64, ArchiveSystem) {
    let sys = cli.system(SystemConfig::roadrunner());
    sys.scratch().mkdir_p("/src").unwrap();
    sys.scratch()
        .create_file(
            "/src/big.dat",
            0,
            Content::synthetic(9, file_gb * 1_000_000_000),
        )
        .unwrap();
    let config = PftoolConfig {
        workers,
        readdir_procs: 1,
        tape_procs: 0,
        parallel_copy_threshold: DataSize::gb(1),
        copy_chunk: DataSize::gb(1),
        ..PftoolConfig::default()
    };
    let report = sys.archive_tree("/src", "/dst", &config);
    assert!(report.stats.ok(), "{:?}", report.stats.errors);
    (report.stats.sim_seconds(), sys)
}

fn main() {
    let cli = BenchCli::parse();
    let mut rows = Vec::new();
    let mut rig = None;
    for file_gb in [10u64, 40, 100] {
        let mut base = None;
        for workers in [1usize, 2, 4, 8, 16, 32] {
            let (secs, sys) = run(&cli, file_gb, workers);
            rig = Some(sys);
            let rate = copra_simtime::achieved_rate(
                DataSize::gb(file_gb),
                copra_simtime::SimDuration::from_secs_f64(secs),
            )
            .as_mb_per_sec_f64();
            let b = *base.get_or_insert(secs);
            rows.push(Row {
                file_gb,
                workers,
                secs,
                mb_s: rate,
                speedup_vs_1: b / secs,
            });
        }
    }
    print_table(
        "T-CHUNK (§4.1.2-3): one large file, N-way chunked copy (1 GB chunks)",
        &["GB", "workers", "secs", "MB/s", "speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.file_gb.to_string(),
                    r.workers.to_string(),
                    format!("{:.0}", r.secs),
                    format!("{:.0}", r.mb_s),
                    format!("{:.2}x", r.speedup_vs_1),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n  Paper: N workers copy N chunks of one file in parallel; speedup\n  saturates at the 2x10GigE trunk (~1.9 GB/s achievable).");
    write_json("tbl_chunk", &rows);
    cli.finish(&rig);
}
