//! Admission control with backpressure.
//!
//! The stager refuses to be a black hole: every submit gets a typed
//! verdict. Capacity follows the fleet's *health* — fenced drives and
//! offline libraries shrink the admission window instead of letting
//! requests pile up behind hardware that cannot serve them — and the
//! queue has watermarks, so a flood is shed at the door (the client backs
//! off and resubmits) rather than growing an unbounded backlog.

use copra_simtime::SimInstant;
use copra_tape::{LibraryId, TapeFleet};
use serde::{Deserialize, Serialize};

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
    /// Completion instants of dispatched recalls; an entry with
    /// `end > now` is in flight.
    inflight: Vec<SimInstant>,
}

impl AdmissionController {
    pub fn new() -> Self {
        AdmissionController::default()
    }

    /// Healthy-drive count: drives that are not fenced, in libraries that
    /// are not offline. This is what makes the stager fault-aware — a
    /// fault plan fencing half the drives halves the admission window,
    /// and the queue keeps draining (slower) instead of stalling.
    fn healthy_drives(fleet: &TapeFleet, now: SimInstant) -> usize {
        (0..fleet.library_count() as u32)
            .map(LibraryId)
            .filter(|&lib| !fleet.library_offline(lib, now))
            .flat_map(|lib| fleet.library_drives(lib))
            .filter(|&d| !fleet.is_fenced(d).unwrap_or(true))
            .count()
    }

    /// The current dispatch capacity: healthy drives × per-drive bound,
    /// never below one slot so a fully-degraded fleet still drains once
    /// drives recover (requests queue, they don't error).
    pub fn capacity(fleet: &TapeFleet, now: SimInstant, max_inflight_per_drive: usize) -> usize {
        (Self::healthy_drives(fleet, now) * max_inflight_per_drive).max(1)
    }

    /// Recalls still in flight at `now` (prunes completed entries).
    pub fn inflight(&mut self, now: SimInstant) -> usize {
        self.inflight.retain(|&end| end > now);
        self.inflight.len()
    }

    /// Record a dispatched recall that will complete at `end`.
    pub fn launched(&mut self, end: SimInstant) {
        self.inflight.push(end);
    }

    /// Free dispatch slots at `now`.
    pub fn open_slots(
        &mut self,
        fleet: &TapeFleet,
        now: SimInstant,
        max_inflight_per_drive: usize,
    ) -> usize {
        let cap = Self::capacity(fleet, now, max_inflight_per_drive);
        cap.saturating_sub(self.inflight(now))
    }

    /// The earliest instant an in-flight recall completes after `now`
    /// (when to try dispatching again while the window is closed).
    pub fn next_completion(&self, now: SimInstant) -> Option<SimInstant> {
        self.inflight.iter().copied().filter(|&e| e > now).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copra_obs::Registry;
    use copra_simtime::SimDuration;
    use copra_tape::TapeTiming;

    fn fleet(libs: usize, drives: usize) -> TapeFleet {
        TapeFleet::new(libs, drives, 8, TapeTiming::lto4(), Registry::new())
    }

    #[test]
    fn healthy_drives_counts_full_fleet() {
        let f = fleet(2, 4);
        assert_eq!(
            AdmissionController::healthy_drives(&f, SimInstant::EPOCH),
            8
        );
        assert_eq!(AdmissionController::capacity(&f, SimInstant::EPOCH, 2), 16);
    }

    #[test]
    fn offline_library_shrinks_capacity() {
        let f = fleet(2, 4);
        f.set_library_offline(LibraryId(1), true);
        assert_eq!(
            AdmissionController::healthy_drives(&f, SimInstant::EPOCH),
            4
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

    #[test]
    fn capacity_floor_is_one_slot() {
        let f = fleet(1, 2);
        f.set_library_offline(LibraryId(0), true);
        assert_eq!(
            AdmissionController::healthy_drives(&f, SimInstant::EPOCH),
            0
        );
        assert_eq!(AdmissionController::capacity(&f, SimInstant::EPOCH, 4), 1);
    }
}
