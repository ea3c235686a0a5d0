//! T-REPLICATION: mirrored placement, failover recall, and re-silvering
//! across 1 / 2 / 4 tape libraries.
//!
//! Each row runs the same fixed-seed campaign on an N-library fleet under
//! `Mirror{2}` placement: half the files migrate while the fleet is
//! healthy (primaries fill library 0, replicas spill into the others),
//! then library 0 — the one holding every primary — drops offline and a
//! drive dies in the surviving library. On the 2-library row the second
//! half of the migrates degrade (primary only) instead of failing; with
//! 4 libraries the placement walk re-routes and keeps mirroring through
//! the outage. Every file is recalled *during* the outage (objects whose
//! primary sat in the dead library fail over to a replica), and when the
//! library returns one re-silver pass restores the full replica count.
//!
//! Reported per row: recall latency p50/p99, recall goodput, degraded
//! migrates, failover recalls, and replicas re-silvered.
//!
//! Self-asserting: every recall must succeed with zero lost bytes
//! (content-verified against the original), re-silver must restore every
//! object to target and the closing scrub must report zero
//! under-replicated objects, and the 2-library row must reproduce
//! bit-identically on a second run. `--quick` shrinks the campaign for CI
//! smoke runs.

use copra_bench::{mb_per_sec, print_table, write_json, BenchCli, EXPERIMENT_SEED};
use copra_cluster::NodeId;
use copra_core::{ArchiveSystem, SystemConfig};
use copra_faults::FaultPlan;
use copra_hsm::{resilver, scrub, DataPath, PlacementPolicy};
use copra_simtime::SimDuration;
use copra_vfs::Content;
use serde::Serialize;

/// Outage length: generous enough that every sequential recall lands
/// inside it, so the whole recall phase runs against the degraded fleet.
const OUTAGE: SimDuration = SimDuration::from_secs(2 * 86_400);

#[derive(Serialize, Clone, PartialEq, Debug)]
struct Row {
    libraries: usize,
    files: u64,
    outage: bool,
    degraded_migrates: u64,
    failover_recalls: u64,
    recall_p50_ms: f64,
    recall_p99_ms: f64,
    recall_goodput_mb_s: f64,
    resilvered: u64,
    sim_seconds: f64,
}

fn content(i: u64) -> Content {
    Content::synthetic(700 + i, 2_000_000 + i * 25_000)
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn run(cli: &BenchCli, libraries: usize, files: u64) -> (Row, ArchiveSystem) {
    let config = SystemConfig {
        libraries,
        drives: 2,
        tapes: 64,
        placement: PlacementPolicy::Mirror { copies: 2 },
        ..SystemConfig::test_small()
    };
    let sys = cli.system(config);
    sys.archive().mkdir_p("/camp").unwrap();
    let mut originals = Vec::new();
    for i in 0..files {
        let p = format!("/camp/f{i:03}.dat");
        sys.archive().create_file(&p, 0, content(i)).unwrap();
        originals.push((p, content(i)));
    }

    // Phase A: first half migrates on the healthy fleet (fully mirrored).
    let healthy = (files / 2) as usize;
    let mut cursor = sys.clock().now();
    for (p, _) in &originals[..healthy] {
        let ino = sys.archive().resolve(p).unwrap();
        let (_, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }

    // Phase B: on multi-library rows library 0 — holding every primary —
    // goes dark, and a drive dies in the surviving library 1 for good
    // measure. The remaining migrates re-route (and, with no spare
    // library, degrade) rather than fail.
    let outage = libraries >= 2;
    let outage_end = cursor + OUTAGE;
    let dead_drive = if outage { 2 } else { 0 };
    let mut plan = FaultPlan::new(EXPERIMENT_SEED).fail_drive(dead_drive, cursor);
    if outage {
        plan = plan.offline_library_until(0, cursor, outage_end);
    }
    sys.arm_faults(plan);
    for (p, _) in &originals[healthy..] {
        let ino = sys.archive().resolve(p).unwrap();
        let (_, t) = sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
            .unwrap();
        cursor = t;
    }

    // Phase C: recall everything mid-outage, content-verified.
    let recall_start = cursor;
    let mut durations_ms = Vec::new();
    let mut bytes = 0u64;
    for (i, (p, expected)) in originals.iter().enumerate() {
        let ino = sys.archive().resolve(p).unwrap();
        let node = NodeId((i % sys.cluster().node_count()) as u32);
        let t = sys
            .hsm()
            .recall_file(ino, node, DataPath::LanFree, cursor, None)
            .unwrap_or_else(|e| panic!("{p}: recall failed mid-outage: {e}"));
        if outage {
            assert!(t < outage_end, "{p}: recall ran past the outage window");
        }
        durations_ms.push(t.saturating_since(cursor).as_secs_f64() * 1e3);
        cursor = t;
        bytes += expected.len();
        let got = sys.archive().read_resident(p).unwrap();
        assert_eq!(&got, expected, "{p}: recalled bytes differ");
    }
    let recall_goodput = mb_per_sec(bytes, recall_start, cursor);

    // Phase D: the library returns; one re-silver restores every replica
    // and the closing scrub must find nothing under-replicated.
    let repair = resilver(
        sys.hsm(),
        NodeId(0),
        DataPath::LanFree,
        cursor.max(outage_end),
    )
    .unwrap();
    assert!(
        repair.is_complete(),
        "libraries={libraries}: re-silver left objects under target: {repair:?}"
    );
    sys.export_catalog();
    let report = scrub(sys.hsm(), sys.catalog(), repair.end).unwrap();
    assert!(
        report.under_replicated.is_empty() && report.diverged_replicas.is_empty(),
        "libraries={libraries}: scrub after re-silver: {report:?}"
    );
    assert!(
        report.lost_stubs.is_empty(),
        "libraries={libraries}: lost bytes: {report:?}"
    );

    durations_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = sys.snapshot().metrics;
    let row = Row {
        libraries,
        files,
        outage,
        degraded_migrates: m.counter("replication.degraded_migrates"),
        failover_recalls: m.counter("replication.failover_recalls"),
        recall_p50_ms: percentile(&durations_ms, 0.50),
        recall_p99_ms: percentile(&durations_ms, 0.99),
        recall_goodput_mb_s: recall_goodput,
        resilvered: m.counter("replication.resilvered"),
        sim_seconds: report.end.as_secs_f64(),
    };
    (row, sys)
}

#[derive(Serialize)]
struct Bench {
    files: u64,
    quick: bool,
    rows: Vec<Row>,
}

fn main() {
    let cli = BenchCli::parse();
    let quick = cli.quick;
    let files = if quick { 12 } else { 40 };

    let rows = vec![
        run(&cli, 1, files).0,
        run(&cli, 2, files).0,
        run(&cli, 4, files).0,
    ];
    // Every mirrored recall whose primary sat in the dead library must
    // have failed over; re-silver must repair exactly what degraded.
    for r in rows.iter().filter(|r| r.outage) {
        assert!(
            r.failover_recalls >= files / 2,
            "recalls did not fail over: {r:?}"
        );
        assert_eq!(r.resilvered, r.degraded_migrates, "{r:?}");
    }
    // Two libraries: the outage leaves no spare, so the second half
    // degrades. Four libraries: placement re-routes and keeps mirroring.
    assert_eq!(rows[0].degraded_migrates, 0, "{:?}", rows[0]);
    assert_eq!(
        rows[1].degraded_migrates,
        files - files / 2,
        "{:?}",
        rows[1]
    );
    assert_eq!(rows[2].degraded_migrates, 0, "{:?}", rows[2]);
    // Same seed, same fleet → the same simulated campaign, twice.
    let (again, rig) = run(&cli, 2, files);
    assert_eq!(rows[1], again, "replication campaign must be deterministic");

    print_table(
        "T-REPLICATION: mirrored placement under a drive kill + library outage",
        &[
            "libraries",
            "files",
            "outage",
            "degraded",
            "failovers",
            "recall p50 ms",
            "recall p99 ms",
            "goodput MB/s",
            "resilvered",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.libraries.to_string(),
                    r.files.to_string(),
                    if r.outage { "lib0 down" } else { "-" }.to_string(),
                    r.degraded_migrates.to_string(),
                    r.failover_recalls.to_string(),
                    format!("{:.0}", r.recall_p50_ms),
                    format!("{:.0}", r.recall_p99_ms),
                    format!("{:.1}", r.recall_goodput_mb_s),
                    r.resilvered.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n  Every recall succeeded mid-outage with zero lost bytes\n  (content-verified); degraded migrates were re-silvered back to full\n  replica count once the library returned, and the 2-library row\n  reproduced bit-identically on a second run."
    );

    let bench = Bench { files, quick, rows };
    write_json("tbl_replication", &bench);
    // The committed copy, refreshed in place so later PRs diff against it.
    std::fs::write(
        "BENCH_replication.json",
        serde_json::to_string_pretty(&bench).expect("serialize bench"),
    )
    .expect("write BENCH_replication.json");
    println!("  [json] BENCH_replication.json");
    cli.finish(&rig);
}
