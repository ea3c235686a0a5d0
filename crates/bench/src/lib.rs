//! # copra-bench — the experiment harness
//!
//! One binary per paper table/figure (see `DESIGN.md` §3 for the index):
//!
//! | binary | experiment |
//! |---|---|
//! | `fig08_11` | Figures 8–11: the 62-job Open Science campaign |
//! | `tbl_small_file` | §6.1 small-file tape collapse + aggregation fix |
//! | `tbl_thrash` | §6.2 recall scatter vs tape affinity |
//! | `tbl_order` | §4.1.2-2 tape-ordered vs unordered restore |
//! | `tbl_chunk` | §4.1.2-3 single-large-file N-way chunked copy |
//! | `tbl_fuse` | §4.1.2-4 ArchiveFUSE N-to-1 → N-to-N migration |
//! | `tbl_migrator` | §4.2.4 size-balanced vs naive migration |
//! | `tbl_scan` | §4.2.1 million-inode policy scan |
//! | `tbl_lanfree` | §4.2.2 LAN vs LAN-free data movement |
//! | `tbl_syncdel` | §4.2.6 synchronous delete vs reconcile |
//! | `tbl_restart` | §4.5 restartable transfer chunk marking |
//! | `tbl_faults` | retrieval goodput under injected drive/media/mover failures |
//! | `tbl_stager` | fair-share stager vs unscheduled FIFO recall (T-STAGER) |
//!
//! Each binary prints an aligned table and writes the same rows as JSON to
//! `target/experiments/<name>.json`; `EXPERIMENTS.md` quotes these runs.
//! Criterion benches (in `benches/`) measure the *real* wall-time of the
//! hot machinery.

use copra_core::{ArchiveSystem, SystemConfig, SystemSnapshot};
use copra_obs::Registry;
use copra_simtime::{achieved_rate, DataSize, SimInstant};
use copra_tape::{TapeFleet, TapeTiming};
use copra_trace::Tracer;
use serde::Serialize;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Pretty-print an aligned table.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", cols.join("  "));
    };
    line(&headers);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rows {
        line(row);
    }
}

/// Summary statistics of a series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Summary {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let n = values.len().max(1) as f64;
    Summary {
        min: values.iter().cloned().fold(f64::INFINITY, f64::min),
        max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        mean: values.iter().sum::<f64>() / n,
    }
}

/// Where experiment JSON dumps land.
fn experiments_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Dump a serializable result set next to the human-readable output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    std::fs::write(&path, json).expect("write experiment json");
    println!("  [json] {}", path.display());
}

/// The standard experiment rig: the Roadrunner-shaped system, built with
/// the [`bench_tracer`] (armed when the binary was invoked with
/// `--trace-out`).
pub fn roadrunner_rig() -> ArchiveSystem {
    ArchiveSystem::new(SystemConfig::roadrunner().with_tracer(bench_tracer()))
}

/// A smaller rig for sweeps that rebuild the system many times. Also
/// built with the [`bench_tracer`]; all rebuilt rigs share one span
/// store, so the dumped trace covers the whole sweep.
pub fn small_rig() -> ArchiveSystem {
    ArchiveSystem::new(SystemConfig::test_small().with_tracer(bench_tracer()))
}

/// A one-library tape fleet for a hand-built HSM rig, whose registry
/// records spans into the [`bench_tracer`] like the full-system rigs do.
pub fn rig_library(drives: usize, tapes: usize, timing: TapeTiming) -> TapeFleet {
    TapeFleet::new(1, drives, tapes, timing, Registry::traced(bench_tracer()))
}

/// Fixed seed used across experiment binaries (reproducibility).
pub const EXPERIMENT_SEED: u64 = 0x0000_C075_2010;

/// Achieved MB/s for `bytes` moved over the simulated interval
/// `[start, end]`, through the shared [`achieved_rate`] helper (zero for
/// an empty interval) — the one rate formula every binary reports with.
pub fn mb_per_sec(bytes: u64, start: SimInstant, end: SimInstant) -> f64 {
    achieved_rate(DataSize::from_bytes(bytes), end.saturating_since(start)).as_mb_per_sec_f64()
}

/// The CLI surface every experiment binary shares, parsed once up front:
/// `--quick` (shrunken smoke-test workload), `--metrics-out <path>` and
/// `--trace-out <path>`. Every binary calls [`BenchCli::parse`] at the
/// top of `main` and [`BenchCli::finish`] at the bottom.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// `--quick`: run the smoke-test-sized version of the experiment.
    pub quick: bool,
    /// `--metrics-out <path>`: dump the noted rig's metrics snapshot.
    pub metrics_out: Option<PathBuf>,
    /// `--trace-out <path>`: arm the bench tracer, dump Chrome JSON.
    pub trace_out: Option<PathBuf>,
}

impl BenchCli {
    pub fn parse() -> Self {
        BenchCli {
            quick: std::env::args().any(|a| a == "--quick"),
            metrics_out: path_flag("--metrics-out"),
            trace_out: trace_out_arg(),
        }
    }

    /// The standard experiment epilogue: honor `--metrics-out` and
    /// `--trace-out` in the conventional order.
    pub fn finish(&self) {
        if let Some(path) = &self.metrics_out {
            dump_metrics(path);
        }
        if let Some(path) = &self.trace_out {
            dump_trace(path);
        }
    }
}

/// `--trace-out <path>` (or `--trace-out=<path>`): where to write the
/// Chrome trace-event JSON. The flag also arms the bench tracer.
fn trace_out_arg() -> Option<PathBuf> {
    path_flag("--trace-out")
}

/// `<flag> <path>` or `<flag>=<path>` from the command line; `None` when
/// the flag is absent.
fn path_flag(flag: &str) -> Option<PathBuf> {
    let eq = format!("{flag}=");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix(&eq) {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// The process-wide bench tracer: armed (seeded with
/// [`EXPERIMENT_SEED`]) iff the binary was invoked with `--trace-out`,
/// disabled — and therefore free — otherwise.
pub fn bench_tracer() -> Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER
        .get_or_init(|| {
            if trace_out_arg().is_some() {
                Tracer::armed(EXPERIMENT_SEED)
            } else {
                Tracer::disabled()
            }
        })
        .clone()
}

/// Honor `--trace-out <path>`: write everything the bench tracer recorded
/// as Chrome trace-event JSON (open in `chrome://tracing` / Perfetto).
fn dump_trace(path: &Path) {
    let Some(report) = bench_tracer().report() else {
        return;
    };
    std::fs::write(path, report.to_chrome_json()).expect("write trace json");
    println!(
        "  [trace] {} ({} spans, {} dropped, digest {:016x})",
        path.display(),
        report.spans.len(),
        report.dropped,
        report.tree_digest()
    );
}

/// The most recently noted rig, kept alive so `--metrics-out` can snapshot
/// it at exit (most binaries build systems inside sweep helpers). Full
/// systems give the complete device picture; HSM-only rigs still carry
/// the registry, the server NIC and the drive timelines.
enum NotedRig {
    System(Box<ArchiveSystem>),
    Hsm(copra_hsm::Hsm),
}

static LAST_RIG: Mutex<Option<NotedRig>> = Mutex::new(None);

/// Remember `sys` as the system a later [`BenchCli::finish`]
/// snapshots. Cheap: an `ArchiveSystem` clone shares all state.
pub fn note_rig(sys: &ArchiveSystem) {
    *LAST_RIG.lock().unwrap() = Some(NotedRig::System(Box::new(sys.clone())));
}

/// Remember an HSM-only rig (binaries that drive `Hsm` directly, without
/// the full `ArchiveSystem` wiring).
pub fn note_hsm(hsm: &copra_hsm::Hsm) {
    *LAST_RIG.lock().unwrap() = Some(NotedRig::Hsm(hsm.clone()));
}

fn snapshot_noted() -> SystemSnapshot {
    match &*LAST_RIG.lock().unwrap() {
        Some(NotedRig::System(sys)) => sys.snapshot(),
        Some(NotedRig::Hsm(hsm)) => {
            SystemSnapshot::of_server(hsm.server(), hsm.pfs().clock().now(), Vec::new())
        }
        None => SystemSnapshot {
            sim_now_ns: 0,
            devices: Vec::new(),
            metrics: copra_obs::MetricsSnapshot::default(),
        },
    }
}

/// Honor `--metrics-out <path>`: write the last noted rig's observability
/// snapshot (device utilizations + metrics registry) as JSON.
fn dump_metrics(path: &Path) {
    std::fs::write(path, snapshot_noted().to_json()).expect("write metrics snapshot");
    println!("  [metrics] {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basics() {
        let s = summarize(&[1.0, 2.0, 9.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert!((s.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rigs_build() {
        let rig = small_rig();
        assert!(rig.archive().pool_by_name("tape").is_some());
    }
}
