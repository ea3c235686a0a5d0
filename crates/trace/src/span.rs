//! Spans, the `Tracer` handle, and RAII-ish span guards.
//!
//! The tracer is a cheap clonable handle that is either *disabled*
//! (`inner: None` — every span call returns `None` with zero allocation
//! and zero atomics on the fast path) or *armed* around a shared
//! [`TraceStore`]. Call sites hold `Option<SpanGuard>` and use
//! `as_ref().map(..)` to derive children, so the disabled path compiles
//! down to a branch on a `None`.

use crate::ids::{derive_span_id, fnv64, splitmix64, SpanContext, SpanId, TraceId};
use crate::report::TraceReport;
use crate::store::{current_tid, TraceStore, DEFAULT_SPAN_CAPACITY};
use copra_simtime::{SimDuration, SimInstant};
use serde::Serialize;
use std::sync::Arc;

/// One closed span. Spans carry *two* intervals: the simulated-time window
/// (deterministic, seed-stable, used for the determinism digest) and the
/// wall-clock window (nanoseconds since the tracer was armed, used to
/// profile real phases such as the record scan, which runs with the sim
/// clock frozen).
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub trace: TraceId,
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// The stable domain key the id was derived from (path hash, ino,
    /// shard index, journal seq, ...).
    pub key: u64,
    pub sim_start: SimInstant,
    pub sim_end: SimInstant,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    /// Process-wide thread number of the recording thread (Chrome `tid`).
    /// Excluded from the determinism digest.
    pub tid: u32,
}

impl Span {
    pub fn ctx(&self) -> SpanContext {
        SpanContext {
            trace: self.trace,
            span: self.id,
        }
    }

    pub fn sim_duration(&self) -> SimDuration {
        self.sim_end.saturating_since(self.sim_start)
    }

    pub fn wall_duration_ns(&self) -> u64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns)
    }
}

/// Handle through which all spans are created. Clone freely; all clones
/// share one store.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceStore>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(st) => write!(f, "Tracer(armed, trace={})", st.trace_id()),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Arm a tracer with the default span capacity. The trace id derives
    /// from the seed, so the same seed always names the same trace.
    pub fn armed(seed: u64) -> Self {
        Self::armed_with_capacity(seed, DEFAULT_SPAN_CAPACITY)
    }

    pub fn armed_with_capacity(seed: u64, capacity: usize) -> Self {
        let trace = TraceId(splitmix64(seed ^ fnv64(b"copra-trace")));
        Tracer {
            inner: Some(Arc::new(TraceStore::new(trace, seed, capacity))),
        }
    }

    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a root span (no parent). Returns `None` when disabled.
    pub fn root(&self, name: &'static str, key: u64, sim_now: SimInstant) -> Option<SpanGuard> {
        let store = self.inner.as_ref()?;
        let id = derive_span_id(store.trace_id().0, name, key);
        Some(SpanGuard::open(store.clone(), id, None, name, key, sim_now))
    }

    /// Open a root span keyed by the trace's count of roots opened this
    /// way, for calls with no domain key that is unique per call (a policy
    /// scan, an aggregated migrate, a stager submit). Such calls come from
    /// the one simulation thread, so the keys are deterministic.
    pub fn root_seq(&self, name: &'static str, sim_now: SimInstant) -> Option<SpanGuard> {
        let key = self.inner.as_ref()?.next_root_seq();
        self.root(name, key, sim_now)
    }

    /// Open a span under a context received from elsewhere (a PFTool
    /// message, an HSM caller). Returns `None` when disabled.
    fn child_of(
        &self,
        parent: SpanContext,
        name: &'static str,
        key: u64,
        sim_now: SimInstant,
    ) -> Option<SpanGuard> {
        let store = self.inner.as_ref()?;
        let id = derive_span_id(parent.span.0, name, key);
        Some(SpanGuard::open(
            store.clone(),
            id,
            Some(parent.span),
            name,
            key,
            sim_now,
        ))
    }

    /// Open a span under an *optional* context: roots itself when the
    /// context is absent. The common shape at message-handling sites.
    pub fn span(
        &self,
        parent: Option<SpanContext>,
        name: &'static str,
        key: u64,
        sim_now: SimInstant,
    ) -> Option<SpanGuard> {
        match parent {
            Some(ctx) => self.child_of(ctx, name, key, sim_now),
            None => self.root(name, key, sim_now),
        }
    }

    /// Record an already-closed span in one shot — used where the start
    /// was observed earlier without a live guard (journal intent windows,
    /// timeline queue waits). `wall_start_ns` of `None` stamps a
    /// zero-length wall interval at "now".
    #[allow(clippy::too_many_arguments)]
    pub fn record_closed(
        &self,
        parent: Option<SpanContext>,
        name: &'static str,
        key: u64,
        sim_start: SimInstant,
        sim_end: SimInstant,
        wall_start_ns: Option<u64>,
    ) -> Option<SpanContext> {
        let store = self.inner.as_ref()?;
        let id = match parent {
            Some(ctx) => derive_span_id(ctx.span.0, name, key),
            None => derive_span_id(store.trace_id().0, name, key),
        };
        let wall_end = store.wall_now_ns();
        let span = Span {
            trace: store.trace_id(),
            id,
            parent: parent.map(|c| c.span),
            name,
            key,
            sim_start,
            sim_end: sim_end.max(sim_start),
            wall_start_ns: wall_start_ns.unwrap_or(wall_end).min(wall_end),
            wall_end_ns: wall_end,
            tid: current_tid(),
        };
        let ctx = span.ctx();
        store.record(span);
        Some(ctx)
    }

    /// Record a fully specified closed span (explicit wall interval) —
    /// used by per-shard scan observers that measured their own phases.
    /// Returns the new span's context so sub-phases can nest under it.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        parent: Option<SpanContext>,
        name: &'static str,
        key: u64,
        sim_start: SimInstant,
        sim_end: SimInstant,
        wall_start_ns: u64,
        wall_end_ns: u64,
    ) -> Option<SpanContext> {
        let store = self.inner.as_ref()?;
        let id = match parent {
            Some(ctx) => derive_span_id(ctx.span.0, name, key),
            None => derive_span_id(store.trace_id().0, name, key),
        };
        let span = Span {
            trace: store.trace_id(),
            id,
            parent: parent.map(|c| c.span),
            name,
            key,
            sim_start,
            sim_end: sim_end.max(sim_start),
            wall_start_ns: wall_start_ns.min(wall_end_ns),
            wall_end_ns,
            tid: current_tid(),
        };
        let ctx = span.ctx();
        store.record(span);
        Some(ctx)
    }

    /// Wall-clock nanoseconds since arming, for callers that want to stamp
    /// a start before a `record_closed` later. `None` when disabled.
    pub fn wall_now_ns(&self) -> Option<u64> {
        self.inner.as_ref().map(|s| s.wall_now_ns())
    }

    /// Snapshot everything recorded so far into an analyzable report.
    /// `None` when disabled.
    pub fn report(&self) -> Option<TraceReport> {
        self.inner.as_ref().map(|store| TraceReport {
            trace: store.trace_id(),
            seed: store.seed(),
            spans: store.snapshot(),
            dropped: store.dropped(),
        })
    }
}

/// An open span. Finish it explicitly with the simulated end time; if it
/// is dropped unfinished, it records with `sim_end == sim_start` (a point
/// event in sim time) and the wall window it actually covered.
pub struct SpanGuard {
    store: Arc<TraceStore>,
    span: Span,
    finished: bool,
}

impl SpanGuard {
    fn open(
        store: Arc<TraceStore>,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        key: u64,
        sim_now: SimInstant,
    ) -> Self {
        let wall = store.wall_now_ns();
        let span = Span {
            trace: store.trace_id(),
            id,
            parent,
            name,
            key,
            sim_start: sim_now,
            sim_end: sim_now,
            wall_start_ns: wall,
            wall_end_ns: wall,
            tid: current_tid(),
        };
        SpanGuard {
            store,
            span,
            finished: false,
        }
    }

    /// The context to hand to children / embed in messages.
    pub fn ctx(&self) -> SpanContext {
        self.span.ctx()
    }

    #[cfg(test)]
    pub fn id(&self) -> SpanId {
        self.span.id
    }

    /// Open a child span. Always succeeds (the parent proves the tracer
    /// is armed).
    #[cfg(test)]
    pub fn child(&self, name: &'static str, key: u64, sim_now: SimInstant) -> SpanGuard {
        let id = derive_span_id(self.span.id.0, name, key);
        SpanGuard::open(
            self.store.clone(),
            id,
            Some(self.span.id),
            name,
            key,
            sim_now,
        )
    }

    /// Close the span at the given simulated end and record it.
    pub fn finish(mut self, sim_end: SimInstant) {
        self.span.sim_end = sim_end.max(self.span.sim_start);
        self.span.wall_end_ns = self.store.wall_now_ns();
        self.span.tid = current_tid();
        self.store.record(self.span.clone());
        self.finished = true;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.finished {
            self.span.wall_end_ns = self.store.wall_now_ns();
            self.span.tid = current_tid();
            self.store.record(self.span.clone());
        }
    }
}

/// Convenience: finish an optional guard at `sim_end` if it exists.
pub fn finish_opt(guard: Option<SpanGuard>, sim_end: SimInstant) {
    if let Some(g) = guard {
        g.finish(sim_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_returns_none_everywhere() {
        let t = Tracer::disabled();
        let now = SimInstant::EPOCH;
        assert!(!t.is_armed());
        assert!(t.root("x", 0, now).is_none());
        assert!(t
            .child_of(
                SpanContext {
                    trace: TraceId(1),
                    span: SpanId(2)
                },
                "x",
                0,
                now
            )
            .is_none());
        assert!(t.report().is_none());
        assert!(t.wall_now_ns().is_none());
    }

    #[test]
    fn span_tree_ids_are_seed_stable() {
        let run = |seed: u64| {
            let t = Tracer::armed(seed);
            let root = t.root("pftool.run", 0, SimInstant::EPOCH).unwrap();
            let child = root.child("pftool.request", 42, SimInstant::from_secs(1));
            let ids = (root.id(), child.id());
            child.finish(SimInstant::from_secs(2));
            root.finish(SimInstant::from_secs(3));
            (ids, t.report().unwrap())
        };
        let (ids_a, rep_a) = run(7);
        let (ids_b, rep_b) = run(7);
        let (ids_c, _) = run(8);
        assert_eq!(ids_a, ids_b);
        assert_ne!(ids_a.0, ids_c.0, "different seed, different trace");
        assert_eq!(rep_a.tree_digest(), rep_b.tree_digest());
    }

    #[test]
    fn dropped_guard_records_point_span() {
        let t = Tracer::armed(1);
        {
            let _g = t.root("abandoned", 5, SimInstant::from_secs(9));
        }
        let rep = t.report().unwrap();
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].sim_duration(), SimDuration::ZERO);
    }

    #[test]
    fn cross_context_parenting_matches_direct_child() {
        let t = Tracer::armed(3);
        let root = t.root("root", 0, SimInstant::EPOCH).unwrap();
        let direct = root.child("work", 9, SimInstant::EPOCH);
        let via_ctx = t
            .child_of(root.ctx(), "work", 9, SimInstant::EPOCH)
            .unwrap();
        assert_eq!(direct.id(), via_ctx.id());
    }
}
