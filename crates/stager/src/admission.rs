//! Admission control with backpressure.
//!
//! The stager refuses to be a black hole: every submit gets a typed
//! verdict. Capacity follows the fleet's *health* — fenced drives and
//! offline libraries shrink the admission window instead of letting
//! requests pile up behind hardware that cannot serve them — and the
//! queue has watermarks, so a flood is shed at the door (the client backs
//! off and resubmits) rather than growing an unbounded backlog.
//!
//! No call walks the fleet's drives or the whole window: capacity reads
//! the fleet's per-library fenced-drive counts
//! ([`TapeFleet::healthy_drives`], no drive lock), and the in-flight
//! window is a min-heap of completion instants, so a prune pops only
//! what completed and the next completion is the heap's top.

use copra_simtime::SimInstant;
use copra_tape::TapeFleet;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The typed verdict a submit receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Served or dispatch-eligible immediately (in-flight window open, or
    /// a stager-pool cache hit that never needs tape at all).
    Accepted,
    /// Parked in the fair-share queue; `depth` is the queue length after
    /// parking (the client's backpressure signal).
    Queued { depth: usize },
    /// Refused at the door: the queue is past its high watermark. The
    /// request is *not* parked; the client should back off and resubmit.
    Shed { depth: usize },
}

impl Admission {
    pub fn is_shed(self) -> bool {
        matches!(self, Admission::Shed { .. })
    }
}

/// Tracks the dispatch window: how many recalls are in flight against
/// how many *healthy* drives.
#[derive(Debug, Default)]
pub struct AdmissionController {
    /// Completion instants of dispatched recalls, earliest on top; an
    /// entry with `end > now` is in flight.
    inflight: BinaryHeap<Reverse<SimInstant>>,
}

impl AdmissionController {
    pub fn new() -> Self {
        AdmissionController::default()
    }

    /// Recalls still in flight at `now` (prunes completed entries).
    pub fn inflight(&mut self, now: SimInstant) -> usize {
        while self.inflight.peek().is_some_and(|&Reverse(end)| end <= now) {
            self.inflight.pop();
        }
        self.inflight.len()
    }

    /// Record a dispatched recall that will complete at `end`.
    pub fn launched(&mut self, end: SimInstant) {
        self.inflight.push(Reverse(end));
    }

    /// Free dispatch slots at `now`. Capacity is healthy drives × the
    /// per-drive bound, so a fault plan fencing half the drives halves the
    /// window and the queue keeps draining (slower) instead of stalling.
    /// It is never below one slot, so a fully-degraded fleet still drains
    /// once drives recover (requests queue, they don't error).
    pub fn open_slots(&mut self, fleet: &TapeFleet, now: SimInstant, per_drive: usize) -> usize {
        let cap = (fleet.healthy_drives(now) * per_drive).max(1);
        cap.saturating_sub(self.inflight(now))
    }

    /// The earliest instant an in-flight recall completes after `now`
    /// (when to try dispatching again while the window is closed). The
    /// heap's top once [`AdmissionController::inflight`] has pruned to
    /// `now`; otherwise a search past the completed entries.
    pub fn next_completion(&self, now: SimInstant) -> Option<SimInstant> {
        match self.inflight.peek() {
            Some(&Reverse(end)) if end > now => Some(end),
            Some(_) => self.inflight.iter().map(|r| r.0).filter(|&e| e > now).min(),
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_obs::Registry;
    use copra_simtime::SimDuration;
    use copra_tape::{LibraryId, TapeTiming};

    fn fleet(libs: usize, drives: usize) -> TapeFleet {
        TapeFleet::new(libs, drives, 8, TapeTiming::lto4(), Registry::new())
    }

    #[test]
    fn capacity_counts_full_fleet() {
        let f = fleet(2, 4);
        let mut ac = AdmissionController::new();
        assert_eq!(ac.open_slots(&f, SimInstant::EPOCH, 2), 16);
        ac.launched(SimInstant::from_secs(1));
        assert_eq!(ac.open_slots(&f, SimInstant::EPOCH, 2), 15);
    }

    #[test]
    fn offline_library_shrinks_capacity() {
        let f = fleet(2, 4);
        f.set_library_offline(LibraryId(1), true);
        assert_eq!(
            AdmissionController::new().open_slots(&f, SimInstant::EPOCH, 2),
            8
        );
    }

    #[test]
    fn inflight_window_prunes_completions() {
        let mut ac = AdmissionController::new();
        let t = |s| SimInstant::EPOCH + SimDuration::from_secs(s);
        ac.launched(t(10));
        ac.launched(t(20));
        assert_eq!(ac.inflight(t(5)), 2);
        assert_eq!(ac.next_completion(t(5)), Some(t(10)));
        assert_eq!(ac.inflight(t(15)), 1);
        assert_eq!(ac.inflight(t(25)), 0);
        assert_eq!(ac.next_completion(t(25)), None);
    }

    /// The window as a plain list: retain to prune, a filtered min for
    /// the next completion.
    #[derive(Default)]
    struct VecWindow(Vec<SimInstant>);

    impl VecWindow {
        fn inflight(&mut self, now: SimInstant) -> usize {
            self.0.retain(|&end| end > now);
            self.0.len()
        }
        fn next_completion(&self, now: SimInstant) -> Option<SimInstant> {
            self.0.iter().copied().filter(|&e| e > now).min()
        }
    }

    #[test]
    fn heap_window_matches_a_vec_reference() {
        for (seed, monotone) in [(1u64, true), (2, true), (3, false), (4, false)] {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let (mut heap, mut reference) = (AdmissionController::new(), VecWindow::default());
            let mut now = 0u64;
            for step in 0..2000 {
                now = if monotone { now + next(4) } else { next(400) };
                let at = SimInstant::from_secs(now);
                let ctx = format!("seed {seed} step {step} at {now}s");
                match next(4) {
                    0 | 1 => {
                        // Completions may tie with each other and with `now`.
                        let end = SimInstant::from_secs(now + next(40));
                        heap.launched(end);
                        reference.0.push(end);
                    }
                    2 => assert_eq!(heap.inflight(at), reference.inflight(at), "{ctx}"),
                    _ => assert_eq!(
                        heap.next_completion(at),
                        reference.next_completion(at),
                        "{ctx}"
                    ),
                }
            }
        }
    }

    #[test]
    fn capacity_floor_is_one_slot() {
        let f = fleet(1, 2);
        f.set_library_offline(LibraryId(0), true);
        assert_eq!(f.healthy_drives(SimInstant::EPOCH), 0);
        let mut ac = AdmissionController::new();
        assert_eq!(ac.open_slots(&f, SimInstant::EPOCH, 4), 1);
        ac.launched(SimInstant::from_secs(1));
        assert_eq!(ac.open_slots(&f, SimInstant::EPOCH, 4), 0);
    }
}
