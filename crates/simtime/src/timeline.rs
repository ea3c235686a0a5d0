//! FIFO resource timelines — the heart of the virtual-time model.
//!
//! A [`Timeline`] represents one serially-reusable device: a tape drive, a
//! NIC, a SAN link, a disk array's aggregate head bandwidth, or the TSM
//! server's ingest path. Concurrent operations reserve intervals; the
//! timeline serializes them in arrival order, which models FIFO queueing at
//! a finite-rate resource.
//!
//! ## State
//!
//! All mutable state sits in one `Mutex`: the **frontier** `next_free` (the
//! first instant with no reservation at or after it), the busy/ops/bytes
//! counters, and a deque of **free gaps** strictly below the frontier. When
//! a grant starts *after* the frontier, the skipped idle interval is
//! published as a gap; ops whose ready time is below the frontier backfill
//! those gaps (the behaviour the `backfill_uses_idle_gaps` property test
//! pins down). The gaps are disjoint and sorted by start, so their ends
//! ascend too: the first fit binary-searches past every gap that ends too
//! early instead of rescanning the stale ones a long run leaves behind. The
//! deque holds at most `MAX_GAPS`; a full list drops its earliest gap.
//!
//! Simulated time is driven by one host thread (DESIGN.md §10), so the lock
//! is uncontended; it keeps the handle `Send + Sync` and correct if several
//! threads do reserve at once. Reservations never overlap and never move
//! backwards; both invariants are covered by property tests and a
//! multi-threaded stress test.

use crate::rate::{Bandwidth, DataSize};
use crate::time::{SimDuration, SimInstant};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// The interval granted to one operation on a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reservation {
    /// When the resource started serving this operation (>= requested ready
    /// time; later if the resource was busy).
    pub start: SimInstant,
    /// When the operation completes on this resource.
    pub end: SimInstant,
}

impl Reservation {
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Aggregate accounting for a timeline, used for utilization reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineStats {
    /// Total busy time granted.
    pub busy: SimDuration,
    /// Number of reservations granted.
    pub ops: u64,
    /// Payload bytes accounted against this resource.
    pub bytes: DataSize,
    /// Latest instant at which the resource becomes free.
    pub next_free: SimInstant,
}

impl TimelineStats {
    /// Fraction of `[EPOCH, horizon]` this resource was busy. Clamped to
    /// `[0, 1]`.
    pub fn utilization(&self, horizon: SimInstant) -> f64 {
        if horizon == SimInstant::EPOCH {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).clamp(0.0, 1.0)
    }
}

/// Bound on the backfill gap list. Gaps are an optimization: when the list
/// is full the earliest gap is discarded, which can only delay a future
/// backfill, never corrupt the schedule.
const MAX_GAPS: usize = 1024;

/// A named FIFO resource with an intrinsic bandwidth and per-operation
/// latency.
///
/// Cloneable handle semantics: `Timeline` is an `Arc` internally, so device
/// handles can be shared freely across worker threads.
#[derive(Clone)]
pub struct Timeline {
    shared: Arc<Shared>,
}

struct Shared {
    name: String,
    bandwidth: Bandwidth,
    latency: SimDuration,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// The frontier (nanoseconds): first instant with no reservation at or
    /// after it. Monotonically non-decreasing.
    next_free: u64,
    busy_ns: u64,
    ops: u64,
    bytes: u64,
    /// Free intervals strictly below the frontier, sorted by start,
    /// disjoint — hence sorted by end as well.
    gaps: VecDeque<(u64, u64)>,
}

impl fmt::Debug for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Timeline")
            .field("name", &self.shared.name)
            .field("bandwidth", &self.shared.bandwidth)
            .field("latency", &self.shared.latency)
            .field("stats", &stats)
            .finish()
    }
}

impl Timeline {
    /// A resource that moves payload at `bandwidth` and charges `latency`
    /// once per operation (e.g. per-message or per-I/O setup cost).
    pub fn new(name: impl Into<String>, bandwidth: Bandwidth, latency: SimDuration) -> Self {
        Timeline {
            shared: Arc::new(Shared {
                name: name.into(),
                bandwidth,
                latency,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// A latency-only resource (no payload capacity), e.g. a metadata hop.
    pub fn latency_only(name: impl Into<String>, latency: SimDuration) -> Self {
        Timeline::new(name, Bandwidth::ZERO, latency)
    }

    pub fn name(&self) -> &str {
        &self.shared.name
    }

    pub fn bandwidth(&self) -> Bandwidth {
        self.shared.bandwidth
    }

    pub fn latency(&self) -> SimDuration {
        self.shared.latency
    }

    /// Reserve an explicit duration starting no earlier than `ready`.
    /// FIFO: the granted start is `max(ready, next_free)`, except that ops
    /// ready below the frontier may backfill a published idle gap.
    pub fn reserve(&self, ready: SimInstant, duration: SimDuration) -> Reservation {
        self.reserve_accounted(ready, duration, DataSize::ZERO)
    }

    /// Reserve time to move `bytes` of payload (plus the per-op latency),
    /// accounting the bytes against this resource.
    pub fn transfer(&self, ready: SimInstant, bytes: DataSize) -> Reservation {
        let dur = self.shared.latency + self.shared.bandwidth.time_for(bytes);
        self.reserve_accounted(ready, dur, bytes)
    }

    /// Reserve time to move `bytes` with an extra fixed overhead on top of
    /// the intrinsic latency (e.g. a tape backhitch).
    pub fn transfer_with_overhead(
        &self,
        ready: SimInstant,
        bytes: DataSize,
        overhead: SimDuration,
    ) -> Reservation {
        let dur = self.shared.latency + overhead + self.shared.bandwidth.time_for(bytes);
        self.reserve_accounted(ready, dur, bytes)
    }

    fn reserve_accounted(
        &self,
        ready: SimInstant,
        duration: SimDuration,
        bytes: DataSize,
    ) -> Reservation {
        let dur = duration.as_nanos();
        let mut st = self.shared.state.lock();
        let start_ns = st.claim(ready.as_nanos(), dur);
        st.busy_ns += dur;
        st.ops += 1;
        st.bytes += bytes.as_bytes();
        Reservation {
            start: SimInstant::from_nanos(start_ns),
            end: SimInstant::from_nanos(start_ns + dur),
        }
    }

    /// Probe: when could an operation of `duration` start if ready at
    /// `ready`? (Used by pools to pick the best member.)
    pub fn earliest_start(&self, ready: SimInstant, duration: SimDuration) -> SimInstant {
        let ready_ns = ready.as_nanos();
        let st = self.shared.state.lock();
        let start = match State::first_fit(&st.gaps, ready_ns, duration.as_nanos()) {
            Some((_, s)) => s,
            None => st.next_free.max(ready_ns),
        };
        SimInstant::from_nanos(start)
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> TimelineStats {
        let st = self.shared.state.lock();
        TimelineStats {
            busy: SimDuration::from_nanos(st.busy_ns),
            ops: st.ops,
            bytes: DataSize::from_bytes(st.bytes),
            next_free: SimInstant::from_nanos(st.next_free),
        }
    }

    /// The instant at which the resource next becomes free.
    pub fn next_free(&self) -> SimInstant {
        SimInstant::from_nanos(self.shared.state.lock().next_free)
    }
}

impl State {
    /// Grant `[start, start+dur)` with `start >= ready`. A device free at
    /// `ready` starts there, publishing the skipped idle time as a gap; an
    /// op ready below the frontier backfills a gap, else queues at the
    /// frontier.
    fn claim(&mut self, ready: u64, dur: u64) -> u64 {
        let start = if ready >= self.next_free {
            Self::insert_gap(&mut self.gaps, self.next_free, ready);
            ready
        } else if let Some(start) = Self::carve(&mut self.gaps, ready, dur) {
            return start;
        } else {
            self.next_free
        };
        self.next_free = start + dur;
        start
    }

    /// Earliest `[s, s+dur)` fitting inside a free gap with `s >= ready`;
    /// carves it out of the list. Zero-duration ops fit without carving.
    fn carve(gaps: &mut VecDeque<(u64, u64)>, ready: u64, dur: u64) -> Option<u64> {
        let (i, s) = Self::first_fit(gaps, ready, dur)?;
        if dur == 0 {
            return Some(s);
        }
        let (a, b) = gaps[i];
        let e = s + dur;
        match (s > a, e < b) {
            (true, true) => {
                gaps[i] = (a, s);
                gaps.insert(i + 1, (e, b));
            }
            (true, false) => gaps[i] = (a, s),
            (false, true) => gaps[i] = (e, b),
            (false, false) => {
                gaps.remove(i);
            }
        }
        debug_assert!(Self::ordered_near(gaps, i));
        Some(s)
    }

    /// Index and start of the first gap that holds `[s, s+dur)` with
    /// `s >= ready`. Gaps are disjoint and sorted by start, hence sorted by
    /// end too, and a gap ending before `ready + dur` can never fit: the
    /// binary search skips exactly the gaps a linear scan would reject, so
    /// the first fit is the same. Past that point only the gap's own
    /// length can still rule it out.
    fn first_fit(gaps: &VecDeque<(u64, u64)>, ready: u64, dur: u64) -> Option<(usize, u64)> {
        let need = ready.checked_add(dur)?;
        let from = gaps.partition_point(|&(_, b)| b < need);
        gaps.range(from..)
            .position(|&(a, b)| dur <= b - a)
            .map(|k| (from + k, gaps[from + k].0.max(ready)))
    }

    /// Insert `[start, end)` keeping the list sorted; drops the earliest
    /// gap when full (bounded memory; losing a gap is only a missed
    /// backfill opportunity).
    fn insert_gap(gaps: &mut VecDeque<(u64, u64)>, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if gaps.len() >= MAX_GAPS {
            gaps.pop_front();
        }
        let pos = gaps.partition_point(|&(a, _)| a < start);
        gaps.insert(pos, (start, end));
        debug_assert!(Self::ordered_near(gaps, pos));
    }

    /// The invariant [`Self::first_fit`] relies on — each gap ends at or
    /// before the next one starts, so ends ascend with starts — checked
    /// around index `i`, the only place an insert or carve changed.
    fn ordered_near(gaps: &VecDeque<(u64, u64)>, i: usize) -> bool {
        (i.saturating_sub(1)..i + 2)
            .take_while(|&j| j + 1 < gaps.len())
            .all(|j| gaps[j].1 <= gaps[j + 1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> DataSize {
        DataSize::mb(n)
    }

    #[test]
    fn fifo_serializes_contending_ops() {
        let t = Timeline::new("nic", Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        let a = t.transfer(SimInstant::EPOCH, mb(100)); // 1 s
        let b = t.transfer(SimInstant::EPOCH, mb(100)); // queued behind a
        assert_eq!(a.start, SimInstant::EPOCH);
        assert_eq!(a.end, SimInstant::from_secs(1));
        assert_eq!(b.start, SimInstant::from_secs(1));
        assert_eq!(b.end, SimInstant::from_secs(2));
    }

    #[test]
    fn idle_resource_starts_at_ready_time() {
        let t = Timeline::new("nic", Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        let r = t.transfer(SimInstant::from_secs(10), mb(50));
        assert_eq!(r.start, SimInstant::from_secs(10));
        assert_eq!(r.duration(), SimDuration::from_millis(500));
    }

    #[test]
    fn latency_charged_per_operation() {
        let t = Timeline::new(
            "disk",
            Bandwidth::mb_per_sec(1000),
            SimDuration::from_millis(5),
        );
        let r = t.transfer(SimInstant::EPOCH, mb(1));
        assert_eq!(r.duration(), SimDuration::from_millis(6));
    }

    #[test]
    fn overhead_added_on_top() {
        let t = Timeline::new("drive", Bandwidth::mb_per_sec(120), SimDuration::ZERO);
        let r = t.transfer_with_overhead(SimInstant::EPOCH, mb(12), SimDuration::from_secs(2));
        assert!((r.duration().as_secs_f64() - 2.1).abs() < 1e-9);
    }

    #[test]
    fn stats_accumulate() {
        let t = Timeline::new("nic", Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        t.transfer(SimInstant::EPOCH, mb(100));
        t.transfer(SimInstant::EPOCH, mb(300));
        let s = t.stats();
        assert_eq!(s.ops, 2);
        assert_eq!(s.bytes, mb(400));
        assert_eq!(s.busy, SimDuration::from_secs(4));
        assert_eq!(s.next_free, SimInstant::from_secs(4));
        assert!((s.utilization(SimInstant::from_secs(8)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamps() {
        let t = Timeline::new("nic", Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        t.transfer(SimInstant::EPOCH, mb(800));
        assert_eq!(t.stats().utilization(SimInstant::from_secs(4)), 1.0);
        assert_eq!(t.stats().utilization(SimInstant::EPOCH), 0.0);
    }

    #[test]
    fn backfill_lands_in_skipped_gap() {
        let t = Timeline::new("nic", Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        // Claim far in the future, skipping [0, 100s).
        let far = t.reserve(SimInstant::from_secs(100), SimDuration::from_secs(1));
        assert_eq!(far.start, SimInstant::from_secs(100));
        // An earlier-ready op backfills the gap instead of queueing at 101s.
        let r = t.reserve(SimInstant::from_secs(2), SimDuration::from_secs(5));
        assert_eq!(r.start, SimInstant::from_secs(2));
        // The carved gap is no longer available to an identical request...
        let r2 = t.reserve(SimInstant::from_secs(2), SimDuration::from_secs(5));
        assert_eq!(r2.start, SimInstant::from_secs(7));
        // ...and an op too big for any remaining gap queues at the frontier.
        let big = t.reserve(SimInstant::EPOCH, SimDuration::from_secs(500));
        assert_eq!(big.start, SimInstant::from_secs(101));
    }

    #[test]
    fn frontier_never_moves_backwards() {
        let t = Timeline::new("nic", Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        t.reserve(SimInstant::from_secs(50), SimDuration::from_secs(1));
        let nf = t.next_free();
        // Backfilling below the frontier must not regress it.
        t.reserve(SimInstant::EPOCH, SimDuration::from_secs(1));
        assert_eq!(t.next_free(), nf);
    }

    #[test]
    fn full_gap_list_forgets_its_earliest_gap() {
        let t = Timeline::new("nic", Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        let secs = SimDuration::from_secs;
        // Gap 0 is [0, 100 s), gap 1 is [101 s, 121 s), and MAX_GAPS - 1
        // more gaps of 5 s follow: MAX_GAPS + 1 skip-gaps in all.
        t.reserve(SimInstant::from_secs(100), secs(1));
        t.reserve(SimInstant::from_secs(121), secs(1));
        for _ in 2..=MAX_GAPS {
            t.reserve(t.next_free() + secs(5), secs(1));
        }
        assert_eq!(t.shared.state.lock().gaps.len(), MAX_GAPS);
        let frontier = t.next_free();
        // A 50 s op fits only gap 0, which was evicted: it queues.
        let r = t.reserve(SimInstant::EPOCH, secs(50));
        assert_eq!(r.start, frontier);
        // A 20 s op fits gap 1, which survived: it still backfills.
        let r = t.reserve(SimInstant::EPOCH, secs(20));
        assert_eq!(r.start, SimInstant::from_secs(101));
    }
}
