//! T-SCALE: wall-clock scaling of the sharded-namespace hot path.
//!
//! Where `tbl_scan` reproduces the paper's "1M inodes in 10 minutes"
//! datum, this bench defends the *machinery's* scaling claim: the
//! sharded VFS + streaming policy scan must get faster as threads are
//! added, and the simulated results must be bit-identical at every thread
//! count. It drives a million-file mixed namespace (varied sizes, owners,
//! ages and residency) through `run_policy_with` and `scan_records_with`
//! at 1/2/4/8 threads (after an untimed warm-up pass, twice each: in
//! `THREADS` order, then in reverse), reports inodes/s, self-asserts the
//! speedup when the host actually has the cores, and leaves
//! `BENCH_scale.json` behind as the perf trajectory for later PRs to
//! defend.
//!
//! `--quick` shrinks the campaign to ~100k files for CI smoke runs.

use copra_bench::{print_table, write_json};
use copra_pfs::{Cmp, Pfs, PfsBuilder, PolicyEngine, Predicate, Rule};
use copra_simtime::{Clock, SimDuration, SimInstant};
use copra_trace::{TraceReport, Tracer};
use copra_vfs::Content;
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct Row {
    threads: usize,
    scan_secs: f64,
    record_secs: f64,
    inodes_per_sec: f64,
    speedup: f64,
    matched: usize,
    checksum: u64,
}

#[derive(Serialize)]
struct Bench {
    files: usize,
    build_secs: f64,
    /// Physical processors on the host, independent of cgroup quotas or
    /// affinity masks (what the machine *has*).
    host_cores: usize,
    /// Parallelism actually schedulable by this process
    /// (`available_parallelism()`: what the run could *use*). On an
    /// unconstrained host this equals `host_cores`; in a CPU-limited
    /// container it is smaller, and the speedup gate keys off it.
    usable_cores: usize,
    /// True when the run had enough usable cores for the speedup gates to
    /// be meaningful (and therefore enforced).
    speedup_asserted: bool,
    rows: Vec<Row>,
}

/// Physical processor count, read past any cgroup/affinity limit.
/// `available_parallelism()` honours those limits (correctly, for the
/// gate), but recording it as `host_cores` mislabels a quota-limited CI
/// runner as a 1-core machine.
fn physical_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The timed passes in run order: every thread count once in `THREADS`
/// order, then once in reverse, so no count always runs first or last.
fn pass_order() -> impl Iterator<Item = usize> {
    THREADS.into_iter().chain(THREADS.into_iter().rev())
}

/// Wall-clock exclusive-time breakdown of the record phase at one thread
/// count. Scan roots are keyed by the trace's root sequence, so the
/// `pfs.scan_records` roots in key order are the warm-up pass and then
/// the timed passes in `pass_order`; keep the faster of the two passes at
/// `threads` (matching the best-of-two timing the table reports) and its
/// subtree.
fn print_record_breakdown(report: &TraceReport, threads: usize) {
    let mut roots: Vec<&copra_trace::Span> = report
        .spans
        .iter()
        .filter(|s| s.name == "pfs.scan_records")
        .collect();
    roots.sort_by_key(|s| s.key);
    let Some(root) = roots
        .into_iter()
        .skip(1)
        .zip(pass_order())
        .filter(|&(_, t)| t == threads)
        .map(|(root, _)| root)
        .min_by_key(|s| s.wall_duration_ns())
    else {
        return;
    };
    let mut kids: HashMap<u64, Vec<&copra_trace::Span>> = HashMap::new();
    for s in &report.spans {
        if let Some(p) = s.parent {
            kids.entry(p.0).or_default().push(s);
        }
    }
    let mut subtree = vec![root];
    let mut queue = vec![root.id.0];
    while let Some(id) = queue.pop() {
        for child in kids.get(&id).into_iter().flatten() {
            subtree.push(child);
            queue.push(child.id.0);
        }
    }
    let sub = TraceReport {
        trace: report.trace,
        seed: report.seed,
        spans: subtree.into_iter().cloned().collect(),
        dropped: 0,
    };
    println!(
        "
  record-phase breakdown at {threads} thread(s):"
    );
    println!("{}", sub.phase_table_text());
}

/// FNV-1a over the scan outcome: scanned count plus every matched path in
/// report order. Identical across thread counts ⇔ the scan is
/// deterministic in simulated terms.
fn checksum(report: &copra_pfs::ScanReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(report.scanned as u64).to_le_bytes());
    for (name, recs) in &report.lists {
        eat(name.as_bytes());
        for r in recs {
            eat(r.path.as_bytes());
            eat(&r.size.to_le_bytes());
        }
    }
    h
}

fn build_namespace(tracer: Tracer, files: usize) -> (Clock, Pfs) {
    let clock = Clock::new();
    let pfs = PfsBuilder::scratch("archive", clock.clone(), 8)
        .tracer(tracer)
        .build();
    // 1000 directories of mixed content: sizes spread over three decades,
    // fifty owners, and ages fanned out so every rule below has real work.
    let dirs = 1000.min(files.max(1));
    let per_dir = files.div_ceil(dirs);
    let mut made = 0usize;
    for d in 0..dirs {
        if made >= files {
            break;
        }
        let dir = pfs.mkdir_p(&format!("/data/d{d:04}")).unwrap();
        for i in 0..per_dir.min(files - made) {
            let n = made + i;
            let size = match n % 3 {
                0 => (n % 512) as u64,
                1 => 4096 + (n % 65536) as u64,
                _ => 1_000_000 + (n % 1_000_000) as u64,
            };
            let content = Content::synthetic(n as u64, size);
            pfs.create_in(dir, &format!("f{i:05}"), (n % 50) as u32, content, size)
                .unwrap();
        }
        made += per_dir.min(files - made);
    }
    clock.advance_to(SimInstant::from_secs(1_000_000));
    (clock, pfs)
}

fn engine() -> PolicyEngine {
    PolicyEngine::new(vec![
        Rule::exclude("skip-tiny", Predicate::SizeBytes(Cmp::Lt, 64)),
        Rule::list(
            "aged",
            "candidates",
            Predicate::MtimeAge(Cmp::Ge, SimDuration::from_secs(3600))
                .and(Predicate::Uid(Cmp::Lt, 25)),
        ),
        Rule::list(
            "big-to-tape",
            "tape",
            Predicate::SizeBytes(Cmp::Ge, 1_000_000),
        ),
    ])
}

fn main() {
    let cli = copra_bench::BenchCli::parse();
    let files = if cli.quick { 100_000 } else { 1_000_000 };
    let usable_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let host_cores = physical_cores().max(usable_cores);

    let t0 = Instant::now();
    let (_clock, pfs) = build_namespace(cli.tracer(), files);
    let build_secs = t0.elapsed().as_secs_f64();
    let eng = engine();

    // One untimed pass first touches the whole table, so no timed pass
    // runs on a cold one. Then best of two passes per thread count, in
    // alternated order: a scan this short is allocator-noise sensitive.
    assert_eq!(pfs.scan_records_with(1).len(), files);
    pfs.run_policy_with(&eng, 1);
    let mut rows: Vec<Row> = THREADS
        .iter()
        .map(|&threads| Row {
            threads,
            scan_secs: f64::INFINITY,
            record_secs: f64::INFINITY,
            inodes_per_sec: 0.0,
            speedup: 0.0,
            matched: 0,
            checksum: 0,
        })
        .collect();
    for threads in pass_order() {
        let r0 = Instant::now();
        let recs = pfs.scan_records_with(threads);
        let record_secs = r0.elapsed().as_secs_f64();
        assert_eq!(recs.len(), files, "record stream must see every file");
        let s0 = Instant::now();
        let report = pfs.run_policy_with(&eng, threads);
        let scan_secs = s0.elapsed().as_secs_f64();
        let row = rows.iter_mut().find(|r| r.threads == threads);
        let row = row.expect("a THREADS entry");
        row.record_secs = row.record_secs.min(record_secs);
        row.scan_secs = row.scan_secs.min(scan_secs);
        row.matched = report.lists.values().map(Vec::len).sum();
        row.checksum = checksum(&report);
    }
    let base = rows[0].scan_secs;
    for r in &mut rows {
        r.inodes_per_sec = files as f64 / r.scan_secs.max(1e-9);
        r.speedup = base / r.scan_secs.max(1e-9);
    }

    // Determinism gate: same simulated outcome at every thread count.
    let c0 = rows[0].checksum;
    for r in &rows {
        assert_eq!(
            r.checksum, c0,
            "scan at {} threads diverged from the single-thread result",
            r.threads
        );
        assert_eq!(r.matched, rows[0].matched);
    }

    // Speedup gates only mean something when the run can actually use the
    // cores; a CPU-limited container records the numbers and skips the
    // assert (loudly).
    let speedup_asserted = usable_cores >= 8;
    let s8 = rows.last().unwrap().speedup;
    if speedup_asserted {
        let floor = if cli.quick { 2.0 } else { 4.0 };
        assert!(
            s8 >= floor,
            "8-thread scan speedup {s8:.2}x fell below the {floor}x floor"
        );
    }

    print_table(
        &format!("T-SCALE: streaming policy scan over {files} inodes (wall-clock)"),
        &[
            "threads",
            "scan s",
            "records s",
            "inodes/s",
            "speedup",
            "matched",
            "checksum",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    format!("{:.3}", r.scan_secs),
                    format!("{:.3}", r.record_secs),
                    format!("{:.0}", r.inodes_per_sec),
                    format!("{:.2}x", r.speedup),
                    r.matched.to_string(),
                    format!("{:016x}", r.checksum),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if speedup_asserted {
        println!(
            "  speedup gate: 8T = {s8:.2}x (enforced; {usable_cores} of {host_cores} cores usable)"
        );
    } else {
        eprintln!(
            "  WARNING: speedup gate SKIPPED — only {usable_cores} of {host_cores} host core(s) \
usable (cgroup/affinity limit); scaling numbers recorded, not enforced"
        );
    }

    if let Some(report) = pfs.tracer().report() {
        print_record_breakdown(&report, 1);
        print_record_breakdown(&report, 8);
    }

    let bench = Bench {
        files,
        build_secs,
        host_cores,
        usable_cores,
        speedup_asserted,
        rows,
    };
    write_json("tbl_scale", &bench);
    // The committed perf-trajectory copy, refreshed in place so later PRs
    // diff against it.
    std::fs::write(
        "BENCH_scale.json",
        serde_json::to_string_pretty(&bench).expect("serialize bench"),
    )
    .expect("write BENCH_scale.json");
    println!("  [json] BENCH_scale.json");
    cli.finish(&());
}
