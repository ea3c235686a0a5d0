//! # copra-trace — causal span tracing for the copra archive system
//!
//! The metrics plane (`copra-obs`) answers *how much*; this crate answers
//! *where time goes*. It records parent/child **spans** carrying both a
//! simulated-time window and a wall-clock window, propagates span context
//! across PFTool messages, HSM calls and journal intents, and offers two
//! analyses over the resulting tree:
//!
//! * [`TraceReport::phase_table`] — the phase profiler: inclusive /
//!   exclusive time per span name, call counts, wall p50/p99.
//! * [`TraceReport::critical_path`] — the longest causal chain below a
//!   root, with per-hop attribution ("this migrate spent 61% of its life
//!   waiting on a drive mount").
//!
//! Plus Chrome trace-event export ([`TraceReport::to_chrome_json`]) so any
//! `--trace-out` file opens in `chrome://tracing` / Perfetto.
//!
//! ## Determinism
//!
//! Span ids derive from `splitmix64(parent ^ fnv64(name) ^ key)` where
//! `key` is stable domain identity (path hash, ino, shard index, journal
//! seq) — never execution order. The same seed and the same work produce
//! the identical span tree (checked via [`TraceReport::tree_digest`],
//! which covers the sim-time tree and excludes wall time / thread ids),
//! even across tail-stealing and mover respawns.
//!
//! ## Cost discipline
//!
//! A [`Tracer`] is either disabled (`Option::None` inner — span calls are
//! a branch and return `None`, zero allocation) or armed around one
//! bounded, mutex-guarded span buffer. Armed tracing must stay
//! under 5% overhead on `tbl_scale` (asserted in CI), which is why hot
//! loops are instrumented per *shard*, not per record.

mod chrome;
mod ids;
mod report;
mod span;
mod store;

pub use chrome::{SIM_PID, WALL_PID};
pub use ids::{derive_span_id, fnv64, splitmix64, SpanContext, SpanId, TraceId};
pub use report::{PathStep, PhaseRow, TraceReport};
pub use span::{finish_opt, Span, SpanGuard, Tracer};
pub use store::{TraceStore, DEFAULT_SPAN_CAPACITY};
