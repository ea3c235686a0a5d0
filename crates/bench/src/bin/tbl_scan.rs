//! T-SCAN (§4.2.1): the million-inode policy scan.
//!
//! Paper datum: "GPFS can scan one million inodes in ten minutes", quoted
//! as evidence the file system scales to archive-size namespaces. We build
//! a million-file namespace and run a real ILM policy scan over it (the
//! sharded parallel `Vfs::par_scan`, wall-clock measured).

use copra_bench::{print_table, write_json};
use copra_pfs::{Cmp, PfsBuilder, PolicyEngine, Predicate, Rule};
use copra_simtime::{Clock, SimDuration};
use copra_vfs::Content;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    inodes: usize,
    build_secs: f64,
    scan_secs: f64,
    inodes_per_sec: f64,
    matched: usize,
}

fn run(files: usize) -> Row {
    let clock = Clock::new();
    let pfs = PfsBuilder::scratch("archive", clock.clone(), 8).build();
    let t0 = Instant::now();
    // Build a namespace with a realistic directory shape (1000 dirs).
    let per_dir = files.div_ceil(1000);
    let mut made = 0usize;
    for d in 0..1000 {
        if made >= files {
            break;
        }
        let dir = pfs.mkdir_p(&format!("/data/d{d:04}")).unwrap();
        for i in 0..per_dir.min(files - made) {
            let size = ((made + i) % 4096) as u64;
            let content = Content::synthetic((made + i) as u64, size);
            pfs.create_in(dir, &format!("f{i:05}"), (i % 50) as u32, content, size)
                .unwrap();
        }
        made += per_dir.min(files - made);
    }
    let build_secs = t0.elapsed().as_secs_f64();
    clock.advance_to(copra_simtime::SimInstant::from_secs(100_000));
    let engine = PolicyEngine::new(vec![
        Rule::exclude("skip-big", Predicate::SizeBytes(Cmp::Gt, 3000)),
        Rule::list(
            "aged",
            "candidates",
            Predicate::MtimeAge(Cmp::Ge, SimDuration::from_secs(3600))
                .and(Predicate::Uid(Cmp::Lt, 25)),
        ),
    ]);
    let report = pfs.run_policy(&engine);
    Row {
        inodes: report.scanned,
        build_secs,
        scan_secs: report.wall_seconds,
        inodes_per_sec: report.scanned as f64 / report.wall_seconds,
        matched: report.lists.get("candidates").map(Vec::len).unwrap_or(0),
    }
}

fn main() {
    let cli = copra_bench::BenchCli::parse();
    let mut rows = Vec::new();
    for files in [100_000usize, 1_000_000] {
        rows.push(run(files));
    }
    print_table(
        "T-SCAN (§4.2.1): ILM policy scan (GPFS: 1M inodes in 10 min = 1,667/s)",
        &["inodes", "build s", "scan s", "inodes/s", "matched"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.inodes.to_string(),
                    format!("{:.1}", r.build_secs),
                    format!("{:.3}", r.scan_secs),
                    format!("{:.0}", r.inodes_per_sec),
                    r.matched.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let million = rows.last().unwrap();
    println!(
        "\n  Paper: 1M inodes in 600 s. Measured: 1M (policy-visible files) in {:.2} s\n  ({:.0}x the paper's floor — an in-memory namespace, as expected).",
        million.scan_secs,
        600.0 / million.scan_secs.max(1e-9)
    );
    write_json("tbl_scan", &rows);
    cli.finish(&());
}
