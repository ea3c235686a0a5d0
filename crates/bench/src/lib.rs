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
//! | `tbl_ablation` | ablations A1–A5 of the design choices in `DESIGN.md` §6 |
//! | `tbl_recovery` | journal replay + scrub cost vs journal length (T-RECOVERY) |
//! | `tbl_replication` | mirrored placement under a drive kill + library outage |
//! | `tbl_scale` | wall-clock scaling of the sharded-namespace policy scan (T-SCALE) |
//!
//! Each binary prints an aligned table and writes the same rows as JSON to
//! `target/experiments/<name>.json`; `EXPERIMENTS.md` quotes these runs.
//! Criterion benches (in `benches/`) measure the *real* wall-time of the
//! hot machinery.

use copra_cluster::FtaCluster;
use copra_core::{ArchiveSystem, SystemConfig, SystemSnapshot};
use copra_hsm::{Hsm, PlacementPolicy, TsmServer};
use copra_obs::Registry;
use copra_pfs::{PfsBuilder, PoolConfig};
use copra_simtime::{achieved_rate, Clock, DataSize, SimInstant};
use copra_tape::{TapeFleet, TapeTiming};
use copra_trace::Tracer;
use serde::Serialize;
use std::fmt::Display;
use std::path::{Path, PathBuf};

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
/// `--trace-out <path>`. It owns the run's state: the tracer every rig
/// records into (armed iff `--trace-out` was given) and the rig builders,
/// so no bench state lives in a process global. Every binary calls
/// [`BenchCli::parse`] at the top of `main` and [`BenchCli::finish`],
/// with the rig to snapshot, at the bottom.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// `--quick`: run the smoke-test-sized version of the experiment.
    pub quick: bool,
    /// `--metrics-out <path>`: dump the finished rig's metrics snapshot.
    metrics_out: Option<PathBuf>,
    /// `--trace-out <path>`: dump the tracer's spans as Chrome JSON.
    trace_out: Option<PathBuf>,
    /// Seeded with [`EXPERIMENT_SEED`] when armed; disabled — and
    /// therefore free — otherwise. Every rig built through this CLI
    /// shares its span store, so a dumped trace covers the whole sweep.
    tracer: Tracer,
}

impl BenchCli {
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse `args` (without the program name). `<flag> <path>` and
    /// `<flag>=<path>` are both accepted; the first occurrence wins.
    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let trace_out = path_flag(&args, "--trace-out");
        BenchCli {
            quick: args.iter().any(|a| a == "--quick"),
            metrics_out: path_flag(&args, "--metrics-out"),
            tracer: if trace_out.is_some() {
                Tracer::armed(EXPERIMENT_SEED)
            } else {
                Tracer::disabled()
            },
            trace_out,
        }
    }

    /// The run's tracer, for the rare rig a binary wires itself.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// A full system built from `config`, recording into the run's tracer.
    pub fn system(&self, config: SystemConfig) -> ArchiveSystem {
        ArchiveSystem::new(config.with_tracer(self.tracer()))
    }

    /// An HSM-only rig: an archive file system with one fast pool of
    /// `disks` disks, a `nodes`-node FTA cluster, and a Roadrunner
    /// TSM server over one library of `drives` drives and `tapes`
    /// cartridges, placing single copies. The file system and the
    /// library's registry record into the run's tracer.
    pub fn hsm_rig(
        &self,
        nodes: usize,
        drives: usize,
        tapes: usize,
        disks: usize,
        timing: TapeTiming,
    ) -> Hsm {
        let pfs = PfsBuilder::new("archive", Clock::new())
            .pool(PoolConfig::fast_disk("fast", disks, DataSize::tb(100)))
            .tracer(self.tracer())
            .build();
        let cluster = FtaCluster::new(nodes);
        let library = TapeFleet::new(1, drives, tapes, timing, Registry::traced(self.tracer()));
        let server = TsmServer::roadrunner(library);
        Hsm::new(pfs, server, cluster, PlacementPolicy::Single)
    }

    /// The standard experiment epilogue: honor `--metrics-out` (a
    /// snapshot of `rig`, the rig the binary's results came from) and
    /// `--trace-out`, in that order.
    pub fn finish(&self, rig: &impl Rig) {
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, rig.snapshot().to_json()).expect("write metrics snapshot");
            println!("  [metrics] {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            self.dump_trace(path);
        }
    }

    /// Write everything the tracer recorded as Chrome trace-event JSON
    /// (open in `chrome://tracing` / Perfetto).
    fn dump_trace(&self, path: &Path) {
        let Some(report) = self.tracer.report() else {
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
}

/// `<flag> <path>` or `<flag>=<path>` in `args`; `None` when the flag is
/// absent or has no value.
fn path_flag(args: &[String], flag: &str) -> Option<PathBuf> {
    let eq = format!("{flag}=");
    let mut args = args.iter();
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

/// A rig [`BenchCli::finish`] can snapshot for `--metrics-out`. A full
/// system gives the complete device picture; an HSM-only rig still
/// carries the registry, the server NIC and the drive timelines. `()` is
/// the rig of a binary that builds none (its snapshot is empty), and a
/// sweep's `Option` holds the last rig it built.
pub trait Rig {
    fn snapshot(&self) -> SystemSnapshot;
}

impl Rig for ArchiveSystem {
    fn snapshot(&self) -> SystemSnapshot {
        ArchiveSystem::snapshot(self)
    }
}

impl Rig for Hsm {
    fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot::of_server(self.server(), self.pfs().clock().now(), Vec::new())
    }
}

impl Rig for () {
    fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot {
            sim_now_ns: 0,
            devices: Vec::new(),
            metrics: copra_obs::MetricsSnapshot::default(),
        }
    }
}

impl<R: Rig> Rig for Option<R> {
    fn snapshot(&self) -> SystemSnapshot {
        match self {
            Some(rig) => rig.snapshot(),
            None => ().snapshot(),
        }
    }
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

    fn parsed(args: &[&str]) -> BenchCli {
        BenchCli::from_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn trace_out_arms_the_tracer_in_both_spellings() {
        for args in [&["--trace-out", "x"][..], &["--trace-out=x"]] {
            let cli = parsed(args);
            assert_eq!(cli.trace_out, Some(PathBuf::from("x")), "{args:?}");
            assert!(cli.tracer.is_armed(), "{args:?}");
        }
        let cli = parsed(&[]);
        assert_eq!(cli.trace_out, None);
        assert!(!cli.tracer.is_armed());
    }

    #[test]
    fn quick_and_metrics_out_parse() {
        let cli = parsed(&["--quick", "--metrics-out", "m.json"]);
        assert!(cli.quick);
        assert_eq!(cli.metrics_out, Some(PathBuf::from("m.json")));
        let cli = parsed(&["--metrics-out=m.json"]);
        assert!(!cli.quick);
        assert_eq!(cli.metrics_out, Some(PathBuf::from("m.json")));
    }

    #[test]
    fn rigs_build() {
        let cli = parsed(&[]);
        let sys = cli.system(SystemConfig::test_small());
        assert!(sys.archive().pool_by_name("tape").is_some());
        let hsm = cli.hsm_rig(2, 3, 4, 8, TapeTiming::lto4());
        assert_eq!(hsm.cluster().nodes().count(), 2);
        assert_eq!(hsm.server().library().drive_timeline_stats().len(), 3);
    }
}
