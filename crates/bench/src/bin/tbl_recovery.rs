//! T-RECOVERY: recovery + scrub cost vs journal length.
//!
//! PR-5's durability machinery must stay cheap: recovery replays sealed
//! intents, rolls open ones back, and scrubs the stores back into
//! agreement. This binary builds archives whose intent journal holds N
//! records — half sealed (migrates killed between their seal and their
//! hole punch, which replay applies), half open (migrates killed at a
//! scripted crash point, alternating between a torn tape record and a
//! half-marked stub) — then times a full
//! [`ArchiveSystem::recover`] pass at each N.
//!
//! Self-asserting: every row must recover with zero lost stubs, a drained
//! journal, and a catalog identical to the server DB; the smallest
//! scenario must produce the identical simulated outcome twice (same
//! seed); and the fault-free baseline must snapshot zero
//! `journal.recovered_*` counters before recovery ever runs.
//!
//! `--quick` trims the sweep for CI.

use copra_bench::{print_table, write_json, BenchCli};
use copra_cluster::NodeId;
use copra_core::{ArchiveSystem, SystemConfig};
use copra_faults::FaultPlan;
use copra_hsm::{DataPath, HsmError};
use copra_simtime::SimInstant;
use copra_vfs::Content;
use serde::Serialize;

const SEED: u64 = 0x5C2B;

#[derive(Serialize, Clone, Debug)]
struct Row {
    journal_len: usize,
    sealed: usize,
    open: usize,
    recover_ms: f64,
    replayed: usize,
    rolled_back: usize,
    records_dropped: usize,
    catalog_rows_fixed: u64,
    sim_end_ns: u64,
}

/// The deterministic projection of a row (wall-clock excluded).
fn det(r: &Row) -> (usize, usize, usize, usize, usize, usize, u64, u64) {
    (
        r.journal_len,
        r.sealed,
        r.open,
        r.replayed,
        r.rolled_back,
        r.records_dropped,
        r.catalog_rows_fixed,
        r.sim_end_ns,
    )
}

/// Build a system whose journal holds `sealed` sealed + `open` open
/// intents (each open one genuinely torn), then time recovery.
fn run(cli: &BenchCli, sealed: usize, open: usize) -> (Row, ArchiveSystem) {
    let sys = cli.system(SystemConfig::test_small());
    sys.archive().mkdir_p("/data").unwrap();
    let total = sealed + open;
    for i in 0..total {
        sys.archive()
            .create_file(
                &format!("/data/f{i:04}"),
                0,
                Content::synthetic(SEED + i as u64, 1_200_000 + i as u64 * 1000),
            )
            .unwrap();
    }
    // Every migrate dies at its own occurrence of a crash site
    // (conceptually each op is its own process). Files 1..=sealed die
    // after their seal, before the punch (a finished migrate leaves no
    // intent); of the rest, alternating sites leave two kinds of tear: a
    // tape record the server DB never learned (scrub's job) and a
    // half-marked premigrated stub (rollback's job).
    // Occurrences are per-site consult counts: every attempt consults the
    // store site, but only attempts that survive it reach the mark site.
    let mut plan = FaultPlan::new(SEED);
    let mut mark_occ = 0u32;
    for j in 1..=total {
        if j <= sealed {
            plan = plan.crash_at("migrate.after_seal", j as u32);
        }
        let dies_in_store = j > sealed && j % 2 == 0;
        if dies_in_store {
            plan = plan.crash_at("agent.store.after_write", j as u32);
        } else {
            mark_occ += 1;
            if j > sealed {
                plan = plan.crash_at("migrate.after_mark", mark_occ);
            }
        }
    }
    sys.arm_faults(plan);

    let mut cursor = sys.clock().now();
    let mut crashes = 0usize;
    for i in 0..total {
        let ino = sys.archive().resolve(&format!("/data/f{i:04}")).unwrap();
        match sys
            .hsm()
            .migrate_file(ino, NodeId(0), DataPath::LanFree, cursor, true, None)
        {
            Err(HsmError::Crashed { site }) => {
                crashes += 1;
                if site == "migrate.after_seal" {
                    // Its tape work finished at its seal: go on from there.
                    let sealed = sys.journal().sealed_intents();
                    cursor = sealed.last().and_then(|r| r.sealed_at).unwrap();
                }
            }
            Ok(_) => panic!("every migrate has a scripted crash"),
            Err(e) => panic!("unexpected migrate failure: {e}"),
        }
    }
    assert_eq!(
        crashes, total,
        "every scripted crash must fire exactly once"
    );
    sys.export_catalog();
    let journal_len = sys.journal().len();
    assert_eq!(journal_len, total, "one intent per attempted migrate");

    // Before recovery runs, the recovery counters don't even exist.
    let m = sys.snapshot().metrics;
    assert_eq!(m.counter("journal.recovered_replayed"), 0);
    assert_eq!(m.counter("journal.recovered_rolled_back"), 0);
    assert_eq!(m.counter("journal.recovered_forward"), 0);

    let t0 = std::time::Instant::now();
    let report = sys.recover(cursor).unwrap();
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(report.replayed, sealed);
    assert_eq!(report.rolled_back, open);
    assert_eq!(report.forward_completed, 0);
    assert!(report.scrub.lost_stubs.is_empty(), "no data may be lost");
    assert!(sys.journal().is_empty(), "journal must drain");
    assert_eq!(sys.export_catalog(), 0, "catalog must match the server DB");
    sys.catalog().verify_indexes().expect("catalog indexes");

    let row = Row {
        journal_len,
        sealed,
        open,
        recover_ms,
        replayed: report.replayed,
        rolled_back: report.rolled_back,
        records_dropped: report.scrub.tape_records_dropped,
        catalog_rows_fixed: report.scrub.catalog_rows_fixed,
        sim_end_ns: report.end.as_nanos(),
    };
    (row, sys)
}

/// Fault-free baseline: no plan armed, recovery never invoked — the
/// `journal.recovered_*` family must snapshot zero.
fn baseline(cli: &BenchCli) {
    let sys = cli.system(SystemConfig::test_small());
    sys.archive().mkdir_p("/data").unwrap();
    sys.archive()
        .create_file("/data/f", 0, Content::synthetic(SEED, 2_000_000))
        .unwrap();
    let ino = sys.archive().resolve("/data/f").unwrap();
    sys.hsm()
        .migrate_file(
            ino,
            NodeId(0),
            DataPath::LanFree,
            SimInstant::EPOCH,
            true,
            None,
        )
        .unwrap();
    let m = sys.snapshot().metrics;
    assert_eq!(m.counter("journal.recovered_replayed"), 0);
    assert_eq!(m.counter("journal.recovered_rolled_back"), 0);
    assert_eq!(m.counter("journal.recovered_forward"), 0);
    assert_eq!(m.counter("scrub.passes"), 0);
    assert_eq!(m.counter("faults.crash_points"), 0);
}

fn main() {
    let cli = BenchCli::parse();
    let quick = cli.quick;
    baseline(&cli);
    let lengths: &[usize] = if quick { &[8, 32] } else { &[8, 32, 128, 512] };
    let rows: Vec<Row> = lengths
        .iter()
        .map(|&n| run(&cli, n / 2, n - n / 2).0)
        .collect();

    // Same seed, same plan → same simulated outcome (wall time aside).
    let (again, rig) = run(&cli, lengths[0] / 2, lengths[0] - lengths[0] / 2);
    assert_eq!(
        det(&rows[0]),
        det(&again),
        "recovery must be deterministic for a fixed seed"
    );

    print_table(
        "T-RECOVERY: journal replay + scrub vs journal length (seeded, deterministic)",
        &[
            "journal",
            "sealed",
            "open",
            "recover ms",
            "replayed",
            "rolled back",
            "records dropped",
            "catalog fixed",
            "sim end ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.journal_len.to_string(),
                    r.sealed.to_string(),
                    r.open.to_string(),
                    format!("{:.2}", r.recover_ms),
                    r.replayed.to_string(),
                    r.rolled_back.to_string(),
                    r.records_dropped.to_string(),
                    r.catalog_rows_fixed.to_string(),
                    format!("{:.1}", r.sim_end_ns as f64 / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n  Every row recovered with zero lost stubs, a drained journal and a\n  catalog identical to the server DB; the smallest scenario reproduced\n  its simulated outcome bit-identically on a second run."
    );
    write_json("tbl_recovery", &rows);
    // The committed perf-trajectory copy, refreshed in place so later PRs
    // diff against it.
    std::fs::write(
        "BENCH_recovery.json",
        serde_json::to_string_pretty(&rows).expect("serialize bench"),
    )
    .expect("write BENCH_recovery.json");
    println!("  [json] BENCH_recovery.json");
    cli.finish(&rig);
}
