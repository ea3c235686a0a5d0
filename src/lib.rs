//! # copra — a COTS Parallel Archive System, reproduced in Rust
//!
//! Facade crate for the `copra` workspace: re-exports every subsystem under
//! one roof so that examples and integration tests can `use copra::...`.
//!
//! The workspace reproduces *“Integration Experiences and Performance
//! Studies of A COTS Parallel Archive System”* (LANL, IEEE CLUSTER 2010):
//! GPFS + TSM + a thin layer of user-space glue (PFTool, ArchiveFUSE,
//! synchronous deleter, trashcan, a MySQL index of the TSM database)
//! integrated into a parallel tape archive. See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! Subsystem map:
//!
//! * [`simtime`] — virtual clock and FIFO resource timelines (all device
//!   performance is computed in simulated time).
//! * [`vfs`] — in-memory POSIX-ish file-system substrate.
//! * [`pfs`] — GPFS stand-in: storage pools, ILM policy engine, DMAPI.
//! * [`tape`] — tape library: cartridges, drives, robot, LTO timing.
//! * [`metadb`] — MySQL stand-in: indexed embedded tables.
//! * [`hsm`] — TSM stand-in: object DB, LAN/LAN-free movers, migrate /
//!   recall / reconcile / aggregation.
//! * [`journal`] — write-ahead intent log making multi-store mutations
//!   (namespace + TSM DB + catalog) crash-recoverable.
//! * [`fuse`] — ArchiveFUSE chunking overlay (N-to-1 → N-to-N).
//! * [`cluster`] — FTA cluster nodes, their NIC/HBA devices and the trunk.
//! * [`faults`] — seeded deterministic fault injection (drive/media/robot/
//!   mover faults) and the retry/backoff machinery recovery paths use.
//! * [`obs`] — metrics registry, event tracing, and the device-utilization
//!   snapshot every subsystem reports into.
//! * [`trace`] — causal span tracing: deterministic sim+wall-time span
//!   trees, the phase profiler, critical-path extraction, Chrome export.
//! * [`pftool`] — the paper's parallel tree walker / copier (`pfls`,
//!   `pfcp`, `pfcm`).
//! * [`core`] — the integrated archive system and its public API.
//! * [`workloads`] — Roadrunner Open Science trace generator and file-mix
//!   generators.

pub use copra_cluster as cluster;
pub use copra_core as core;
pub use copra_faults as faults;
pub use copra_fuse as fuse;
pub use copra_hsm as hsm;
pub use copra_journal as journal;
pub use copra_metadb as metadb;
pub use copra_obs as obs;
pub use copra_pfs as pfs;
pub use copra_pftool as pftool;
pub use copra_simtime as simtime;
pub use copra_stager as stager;
pub use copra_tape as tape;
pub use copra_trace as trace;
pub use copra_vfs as vfs;
pub use copra_workloads as workloads;
