//! Pools of identical timelines with earliest-available dispatch.
//!
//! Models banks of interchangeable devices — 24 LTO-4 drives on the SAN, or
//! the per-node NICs of an FTA cluster when a caller doesn't care which node
//! serves it. Dispatch picks the member that can start the operation
//! soonest, breaking ties by index (deterministic). No member can start
//! before `ready`, so the scan stops at the first member free at `ready`:
//! every later member could at best tie, and ties go to the lower index.
//! The early exit is exact, not a heuristic, and that member is claimed
//! under the lock its probe took.

use crate::rate::{Bandwidth, DataSize};
use crate::time::{SimDuration, SimInstant};
use crate::timeline::{Reservation, Timeline};

/// A bank of interchangeable FIFO resources.
#[derive(Clone, Debug)]
pub struct TimelinePool {
    members: Vec<Timeline>,
}

impl TimelinePool {
    /// Build `count` identical members named `{prefix}-{i}`.
    pub fn new(prefix: &str, count: usize, bandwidth: Bandwidth, latency: SimDuration) -> Self {
        assert!(count > 0, "a pool needs at least one member");
        let members = (0..count)
            .map(|i| Timeline::new(format!("{prefix}-{i}"), bandwidth, latency))
            .collect();
        TimelinePool { members }
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    pub fn members(&self) -> &[Timeline] {
        &self.members
    }

    pub fn member(&self, idx: usize) -> &Timeline {
        &self.members[idx]
    }

    /// Transfer `bytes` on the earliest-available member; returns the
    /// member index and the granted reservation. Each member is probed and,
    /// if free at `ready`, claimed under one lock; with none free there,
    /// the member with the earliest start is claimed.
    pub fn transfer_earliest(&self, ready: SimInstant, bytes: DataSize) -> (usize, Reservation) {
        let first = &self.members[0];
        let dur = first.latency() + first.bandwidth().time_for(bytes);
        let mut best = (SimInstant::from_nanos(u64::MAX), 0);
        for (i, m) in self.members.iter().enumerate() {
            match m.reserve_if_free_at(ready, dur, bytes) {
                Ok(r) => return (i, r),
                Err(start) => best = best.min((start, i)),
            }
        }
        let (_, idx) = best;
        (idx, self.members[idx].reserve_accounted(ready, dur, bytes))
    }

    /// Aggregate busy time across members.
    pub fn total_busy(&self) -> SimDuration {
        self.members
            .iter()
            .fold(SimDuration::ZERO, |acc, m| acc + m.stats().busy)
    }

    /// Latest `next_free` across members — when the whole bank drains.
    pub fn drain_time(&self) -> SimInstant {
        self.members
            .iter()
            .fold(SimInstant::EPOCH, |acc, m| acc.max(m.next_free()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_spreads_across_idle_members() {
        let pool = TimelinePool::new("drive", 3, Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        let (a, _) = pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(100));
        let (b, _) = pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(100));
        let (c, _) = pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(100));
        let mut picked = vec![a, b, c];
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1, 2]);
    }

    #[test]
    fn fourth_op_queues_on_first_free_member() {
        let pool = TimelinePool::new("drive", 3, Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        for _ in 0..3 {
            pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(100));
        }
        let (_, r) = pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(100));
        assert_eq!(r.start, SimInstant::from_secs(1));
        assert_eq!(r.end, SimInstant::from_secs(2));
    }

    #[test]
    fn drain_time_is_latest_member() {
        let pool = TimelinePool::new("drive", 2, Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(100));
        pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(300));
        assert_eq!(pool.drain_time(), SimInstant::from_secs(3));
        assert_eq!(pool.total_busy(), SimDuration::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_pool_rejected() {
        let _ = TimelinePool::new("x", 0, Bandwidth::ZERO, SimDuration::ZERO);
    }
}
