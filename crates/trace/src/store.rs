//! Bounded span storage.
//!
//! Spans are pushed into one mutex-guarded buffer. Simulated time runs on
//! one host thread, so the lock is uncontended; the parallel policy scan
//! records only one span per shard. The store is bounded: past `capacity`
//! total spans, new records are counted in `dropped` instead of growing
//! memory without limit.

use crate::ids::TraceId;
use crate::span::Span;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Default bound on stored spans (~96 bytes/span ⇒ ~100 MB worst case).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

// Process-wide thread numbering: each OS thread takes one id on first use
// and keeps it for life. The id is the Chrome `tid`. Thread numbering depends on spawn order, so it is
// excluded from the determinism digest.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

pub(crate) fn current_tid() -> u32 {
    THREAD_TID.with(|c| {
        let v = c.get();
        if v != u32::MAX {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

pub struct TraceStore {
    trace: TraceId,
    seed: u64,
    /// Wall-clock epoch captured when the tracer was armed; all wall
    /// timestamps are nanoseconds since this point.
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    capacity: usize,
    dropped: AtomicU64,
    /// Roots opened by [`crate::Tracer::root_seq`] so far.
    root_seq: AtomicU64,
}

impl TraceStore {
    pub fn new(trace: TraceId, seed: u64, capacity: usize) -> Self {
        TraceStore {
            trace,
            seed,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            capacity,
            dropped: AtomicU64::new(0),
            root_seq: AtomicU64::new(0),
        }
    }

    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Nanoseconds of wall time since the tracer was armed.
    pub fn wall_now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        let mut buf = self.spans.lock();
        if buf.len() < self.capacity {
            buf.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The key of the next [`crate::Tracer::root_seq`] root.
    pub fn next_root_seq(&self) -> u64 {
        self.root_seq.fetch_add(1, Ordering::Relaxed)
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out every recorded span in canonical deterministic order
    /// (sim start, then name, then key, then id) — independent of which
    /// thread recorded it first.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut all = self.spans.lock().clone();
        all.sort_by(|a, b| {
            (a.sim_start, a.name, a.key, a.id.0).cmp(&(b.sim_start, b.name, b.key, b.id.0))
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SpanId;
    use copra_simtime::SimInstant;

    fn mk(id: u64, start: u64) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(id),
            parent: None,
            name: "t",
            key: id,
            sim_start: SimInstant::from_nanos(start),
            sim_end: SimInstant::from_nanos(start + 1),
            wall_start_ns: 0,
            wall_end_ns: 0,
            tid: 0,
        }
    }

    #[test]
    fn bounded_store_counts_drops() {
        let st = TraceStore::new(TraceId(1), 0, 1);
        for i in 0..10 {
            st.record(mk(i, i));
        }
        assert_eq!(st.len(), 1);
        assert_eq!(st.dropped(), 9);
    }

    #[test]
    fn one_thread_fills_the_whole_capacity() {
        let capacity = 1000;
        let st = TraceStore::new(TraceId(1), 0, capacity);
        for i in 0..capacity as u64 {
            st.record(mk(i, i));
        }
        assert_eq!(st.len(), capacity);
        assert_eq!(st.dropped(), 0);
    }

    #[test]
    fn snapshot_is_sorted_by_sim_start() {
        let st = TraceStore::new(TraceId(1), 0, 1024);
        st.record(mk(2, 50));
        st.record(mk(1, 10));
        let snap = st.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].sim_start < snap[1].sim_start);
    }
}
