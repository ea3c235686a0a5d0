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
//! early instead of rescanning the stale ones a long run leaves behind.
//! Every gap ends at or below the frontier, so a request ready at or past it
//! needs no search at all, and a newly published gap always goes at the
//! back. A backfill search first tries where the previous one landed, since
//! ready times mostly track the frontier.
//!
//! Only publishing checks `MAX_GAPS`: a gap published on a list of that
//! length first drops the earliest gap. A backfill that lands inside a gap
//! splits it in two without that check, so the list can grow past
//! `MAX_GAPS` (to 14,670 gaps on perfbench's `pfcp_campaign` and 22,701 on
//! its `recall_storm`).
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

/// List length at which publishing a gap drops the earliest one. Gaps are
/// an optimization: a dropped gap can only delay a future backfill, never
/// corrupt the schedule. Split carves do not check it, so this is not a
/// bound on the list's length.
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
    /// Where the last first-fit search landed: the next one tries it
    /// first. Only a hint; [`State::ending_before`] checks it.
    hint: usize,
}

/// Where a request would be granted: at its ready time or the frontier, or
/// inside the gap at this index.
#[derive(Clone, Copy)]
enum Slot {
    Frontier,
    Gap(usize),
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

    pub(crate) fn reserve_accounted(
        &self,
        ready: SimInstant,
        duration: SimDuration,
        bytes: DataSize,
    ) -> Reservation {
        let mut st = self.shared.state.lock();
        let (slot, start) = st.find(ready.as_nanos(), duration.as_nanos());
        st.grant(slot, start, duration.as_nanos(), bytes)
    }

    /// Grant `duration` at `ready` itself if this resource is free then;
    /// otherwise leave it untouched and return the earliest start it could
    /// offer. One lock either way, so a pool can probe and claim in one step.
    pub(crate) fn reserve_if_free_at(
        &self,
        ready: SimInstant,
        duration: SimDuration,
        bytes: DataSize,
    ) -> Result<Reservation, SimInstant> {
        let mut st = self.shared.state.lock();
        match st.find(ready.as_nanos(), duration.as_nanos()) {
            (slot, start) if start == ready.as_nanos() => {
                Ok(st.grant(slot, start, duration.as_nanos(), bytes))
            }
            (_, start) => Err(SimInstant::from_nanos(start)),
        }
    }

    /// Probe: when could an operation of `duration` start if ready at
    /// `ready`?
    pub fn earliest_start(&self, ready: SimInstant, duration: SimDuration) -> SimInstant {
        let mut st = self.shared.state.lock();
        let (_, start) = st.find(ready.as_nanos(), duration.as_nanos());
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
    /// Where `[start, start+dur)` with `start >= ready` goes. A device free
    /// at `ready` starts there; an op ready below the frontier backfills
    /// the first gap that fits, else queues at the frontier.
    fn find(&mut self, ready: u64, dur: u64) -> (Slot, u64) {
        if ready >= self.next_free {
            return (Slot::Frontier, ready);
        }
        match self.first_fit(ready, dur) {
            Some((i, s)) => (Slot::Gap(i), s),
            None => (Slot::Frontier, self.next_free),
        }
    }

    /// Book `[start, start+dur)` where [`Self::find`] placed it. A start
    /// past the frontier publishes the skipped idle time as a gap; a
    /// backfill carves its interval out of gap `i`.
    fn grant(&mut self, slot: Slot, start: u64, dur: u64, bytes: DataSize) -> Reservation {
        match slot {
            Slot::Frontier => {
                self.publish_gap(self.next_free, start);
                self.next_free = start + dur;
            }
            Slot::Gap(i) => self.carve(i, start, dur),
        }
        self.busy_ns += dur;
        self.ops += 1;
        self.bytes += bytes.as_bytes();
        Reservation {
            start: SimInstant::from_nanos(start),
            end: SimInstant::from_nanos(start + dur),
        }
    }

    /// Remove `[s, s+dur)` from gap `i`, which holds it. Zero-duration ops
    /// fit without carving.
    fn carve(&mut self, i: usize, s: u64, dur: u64) {
        if dur == 0 {
            return;
        }
        let gaps = &mut self.gaps;
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
    }

    /// Index and start of the first gap that holds `[s, s+dur)` with
    /// `s >= ready`. Gaps are disjoint and sorted by start, hence sorted by
    /// end too, and a gap ending before `ready + dur` can never fit: the
    /// search skips exactly the gaps a linear scan would reject, so the
    /// first fit is the same. Past that point only the gap's own length can
    /// still rule it out.
    fn first_fit(&mut self, ready: u64, dur: u64) -> Option<(usize, u64)> {
        let need = ready.checked_add(dur)?;
        let from = self.ending_before(need);
        let gaps = &self.gaps;
        gaps.range(from..)
            .position(|&(a, b)| dur <= b - a)
            .map(|k| (from + k, gaps[from + k].0.max(ready)))
    }

    /// The number of gaps ending before `need`. The hint, or the index
    /// after it, is taken only where that split holds on both sides of it;
    /// otherwise the whole list is binary-searched.
    fn ending_before(&mut self, need: u64) -> usize {
        let gaps = &self.gaps;
        let splits_at =
            |i: usize| (i == 0 || gaps[i - 1].1 < need) && gaps.get(i).is_none_or(|g| g.1 >= need);
        let from = [self.hint, self.hint + 1]
            .into_iter()
            .find(|&i| i <= gaps.len() && splits_at(i))
            .unwrap_or_else(|| gaps.partition_point(|&(_, b)| b < need));
        self.hint = from;
        from
    }

    /// Append the idle interval `[start, end)` skipped below the new
    /// frontier. `start` is the old frontier, at or past every gap's end, so
    /// the list stays sorted. Drops the earliest gap when the list has
    /// `MAX_GAPS` (losing a gap is only a missed backfill opportunity).
    fn publish_gap(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if self.gaps.len() >= MAX_GAPS {
            self.gaps.pop_front();
        }
        self.gaps.push_back((start, end));
        debug_assert!(Self::ordered_near(&self.gaps, self.gaps.len() - 1));
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
