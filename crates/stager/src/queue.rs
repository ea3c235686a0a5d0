//! Per-user fair-share queues with priority aging.
//!
//! The scheduler's contract (CASTOR-style): pick *users* fairly, then let
//! the dispatcher order the picked batch however the tape layer likes.
//! Fairness is byte-weighted — a user who has already been served many
//! bytes yields to one who has been served few, first within the group
//! that has been served the least, so a single heavy group cannot crowd
//! out light ones. Priorities bias the pick; **aging** raises a request's
//! effective priority the longer it waits (one level per `aging_step`,
//! capped at [`Priority::MAX_EFFECTIVE`]), so `Batch` work under sustained
//! `Urgent` load is delayed, never starved.
//!
//! Everything here is deterministic: user selection is a full-order sort
//! over `(effective priority desc, group served asc, user served asc,
//! user id asc, arrival seq asc)`, so hash-map iteration order can never
//! leak into the schedule.
//!
//! A pick looks only at the lanes that hold queued requests: an ordered
//! index of those users is kept by `push` and by the pop that empties a
//! lane. So a pick costs O(queued users), however many users were served
//! before; their served-bytes accounting stays in the lanes regardless.

use crate::request::{Priority, RecallRequest};
use copra_simtime::{SimDuration, SimInstant};
use copra_tape::TapeId;
use copra_trace::SpanContext;
use copra_vfs::Ino;
use rustc_hash::FxHashMap;
use std::collections::{BTreeSet, VecDeque};

/// The full deterministic selection order: effective priority (desc),
/// group served bytes, user served bytes, user id, arrival seq.
type SelectKey = (std::cmp::Reverse<u32>, u64, u64, u32, u64);

/// A request parked in the stager, resolved against the catalog at submit
/// time so dispatch never has to re-query metadata.
#[derive(Debug, Clone)]
pub struct QueuedRecall {
    /// Monotonic submit sequence number (the final determinism tie-break).
    pub seq_no: u64,
    pub request: RecallRequest,
    pub ino: Ino,
    /// Logical file size (fair-share accounting weight).
    pub bytes: u64,
    /// Tape holding the primary copy — dispatch batches sort on this.
    pub tape: TapeId,
    /// On-tape record sequence — the §4.2.5 within-tape order key.
    pub tape_seq: u32,
    pub submitted: SimInstant,
    /// The submit-side span, propagated so `hsm.recall` nests under it.
    pub ctx: Option<SpanContext>,
}

impl QueuedRecall {
    /// Effective priority after aging: one level per `aging_step` waited,
    /// never above [`Priority::MAX_EFFECTIVE`].
    fn effective_priority(&self, now: SimInstant, aging_step: SimDuration) -> u32 {
        let base = self.request.priority.level();
        let step = aging_step.as_nanos().max(1);
        let waited = now.as_nanos().saturating_sub(self.submitted.as_nanos());
        let boost = (waited / step) as u32;
        base.saturating_add(boost).min(Priority::MAX_EFFECTIVE)
    }
}

#[derive(Debug, Default)]
struct UserLane {
    group: u32,
    pending: VecDeque<QueuedRecall>,
    served_bytes: u64,
}

/// The fair-share queue set: one FIFO lane per user, byte-served
/// accounting per user and per group.
#[derive(Debug, Default)]
pub struct FairShareQueue {
    /// Every user ever pushed or charged, queued or not: the served-bytes
    /// accounting outlives the user's requests.
    lanes: FxHashMap<u32, UserLane>,
    group_served: FxHashMap<u32, u64>,
    /// The users whose lane holds queued requests — the only lanes a pick
    /// has to look at.
    queued: BTreeSet<u32>,
    len: usize,
}

impl FairShareQueue {
    pub fn new() -> Self {
        FairShareQueue::default()
    }

    /// Total parked requests across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Users with at least one parked request.
    #[cfg(test)]
    fn active_users(&self) -> usize {
        self.queued.len()
    }

    pub fn push(&mut self, item: QueuedRecall) {
        let user = item.request.user;
        let lane = self.lanes.entry(user).or_default();
        lane.group = item.request.group;
        lane.pending.push_back(item);
        self.queued.insert(user);
        self.len += 1;
    }

    /// Bytes served so far on behalf of `user` (cache hits included —
    /// served is served, wherever the bytes came from).
    #[cfg(test)]
    fn served_bytes(&self, user: u32) -> u64 {
        self.lanes.get(&user).map(|l| l.served_bytes).unwrap_or(0)
    }

    /// Charge served bytes to a user/group without going through a lane
    /// pop — cache hits bypass the queue but must still count against the
    /// user's share, or cache-hot users would double-dip at dispatch.
    pub fn charge_served(&mut self, user: u32, group: u32, bytes: u64) {
        let lane = self.lanes.entry(user).or_default();
        lane.group = group;
        lane.served_bytes += bytes;
        *self.group_served.entry(group).or_default() += bytes;
    }

    /// Select up to `max` requests for one dispatch round.
    ///
    /// Each pick scans every non-empty lane's *head* and takes the best
    /// under the full deterministic order; the winner's bytes are charged
    /// immediately so the very next pick already sees the updated shares
    /// (a user with a huge file does not win twice in a row against a
    /// starving peer).
    pub fn select_round(
        &mut self,
        now: SimInstant,
        aging_step: SimDuration,
        max: usize,
    ) -> Vec<QueuedRecall> {
        let mut picked = Vec::new();
        while picked.len() < max {
            let mut best: Option<(u32, SelectKey)> = None;
            for &user in &self.queued {
                let lane = &self.lanes[&user];
                let head = lane.pending.front().expect("queued lane holds a request");
                let key = (
                    std::cmp::Reverse(head.effective_priority(now, aging_step)),
                    self.group_served.get(&lane.group).copied().unwrap_or(0),
                    lane.served_bytes,
                    user,
                    head.seq_no,
                );
                if best.as_ref().is_none_or(|(_, k)| key < *k) {
                    best = Some((user, key));
                }
            }
            let Some((user, _)) = best else { break };
            picked.push(self.take(user));
        }
        picked
    }

    /// Select up to `max` requests in pure global arrival order — the
    /// unscheduled FIFO baseline. Shares are still charged so a run can
    /// switch modes without losing accounting.
    pub fn select_fifo(&mut self, max: usize) -> Vec<QueuedRecall> {
        let mut picked = Vec::new();
        while picked.len() < max {
            let Some(user) = self
                .queued
                .iter()
                .map(|&u| (self.lanes[&u].pending[0].seq_no, u))
                .min()
                .map(|(_, u)| u)
            else {
                break;
            };
            picked.push(self.take(user));
        }
        picked
    }

    /// Pop the head of `user`'s queued lane and charge its bytes; a lane
    /// left empty leaves the queued index.
    fn take(&mut self, user: u32) -> QueuedRecall {
        let lane = self.lanes.get_mut(&user).expect("queued lane exists");
        let item = lane
            .pending
            .pop_front()
            .expect("queued lane holds a request");
        lane.served_bytes += item.bytes;
        *self.group_served.entry(lane.group).or_default() += item.bytes;
        if lane.pending.is_empty() {
            self.queued.remove(&user);
        }
        self.len -= 1;
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(user: u32, group: u32, prio: Priority) -> RecallRequest {
        RecallRequest::new(format!("/f{user}"))
            .user(user)
            .group(group)
            .priority(prio)
    }

    fn item(seq_no: u64, user: u32, group: u32, prio: Priority, bytes: u64) -> QueuedRecall {
        QueuedRecall {
            seq_no,
            request: req(user, group, prio),
            ino: Ino(seq_no),
            bytes,
            tape: TapeId(0),
            tape_seq: seq_no as u32,
            submitted: SimInstant::EPOCH,
            ctx: None,
        }
    }

    #[test]
    fn higher_priority_head_wins() {
        let mut q = FairShareQueue::new();
        q.push(item(0, 1, 0, Priority::Batch, 100));
        q.push(item(1, 2, 0, Priority::High, 100));
        let round = q.select_round(SimInstant::EPOCH, SimDuration::from_secs(60), 1);
        assert_eq!(round[0].request.user, 2);
    }

    #[test]
    fn served_bytes_bias_selection_toward_starved_user() {
        let mut q = FairShareQueue::new();
        // User 1 already served 1 GB; user 2 nothing. Same priority.
        q.charge_served(1, 0, 1 << 30);
        q.push(item(0, 1, 0, Priority::Normal, 100));
        q.push(item(1, 2, 0, Priority::Normal, 100));
        let round = q.select_round(SimInstant::EPOCH, SimDuration::from_secs(60), 2);
        assert_eq!(round[0].request.user, 2);
        assert_eq!(round[1].request.user, 1);
    }

    #[test]
    fn group_share_outranks_user_share() {
        let mut q = FairShareQueue::new();
        // Group 0 heavily served; its fresh user 3 still yields to group
        // 1's served user 4.
        q.charge_served(1, 0, 1 << 32);
        q.charge_served(4, 1, 1 << 10);
        q.push(item(0, 3, 0, Priority::Normal, 100));
        q.push(item(1, 4, 1, Priority::Normal, 100));
        let round = q.select_round(SimInstant::EPOCH, SimDuration::from_secs(60), 1);
        assert_eq!(round[0].request.user, 4);
    }

    #[test]
    fn aging_lifts_batch_above_urgent_eventually() {
        let mut q = FairShareQueue::new();
        let mut old = item(0, 1, 0, Priority::Batch, 100);
        old.submitted = SimInstant::EPOCH;
        q.push(old);
        let mut fresh = item(1, 2, 0, Priority::Urgent, 100);
        fresh.submitted = SimInstant::EPOCH + SimDuration::from_secs(600);
        q.push(fresh);
        // At t=600s with a 60s aging step, the batch request has +10
        // levels (capped at MAX_EFFECTIVE=7) vs urgent's 6.
        let now = SimInstant::EPOCH + SimDuration::from_secs(600);
        let round = q.select_round(now, SimDuration::from_secs(60), 1);
        assert_eq!(round[0].request.user, 1);
    }

    #[test]
    fn within_user_order_is_fifo() {
        let mut q = FairShareQueue::new();
        q.push(item(0, 1, 0, Priority::Normal, 10));
        q.push(item(1, 1, 0, Priority::Normal, 10));
        q.push(item(2, 1, 0, Priority::Normal, 10));
        let round = q.select_round(SimInstant::EPOCH, SimDuration::from_secs(60), 3);
        let seqs: Vec<u64> = round.iter().map(|i| i.seq_no).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    /// The full-scan scheduler the queue must agree with: every lane ever
    /// seen, its head keyed by the same order, no queued index.
    #[derive(Default)]
    struct Reference {
        lanes: std::collections::BTreeMap<u32, (u32, VecDeque<QueuedRecall>, u64)>,
        group_served: FxHashMap<u32, u64>,
    }

    impl Reference {
        fn push(&mut self, item: QueuedRecall) {
            let lane = self.lanes.entry(item.request.user).or_default();
            lane.0 = item.request.group;
            lane.1.push_back(item);
        }

        fn charge_served(&mut self, user: u32, group: u32, bytes: u64) {
            let lane = self.lanes.entry(user).or_default();
            lane.0 = group;
            lane.2 += bytes;
            *self.group_served.entry(group).or_default() += bytes;
        }

        /// Pop the lane whose head has the least `key` until `max` are
        /// picked or every lane is empty.
        fn select<K: Ord>(
            &mut self,
            key: impl Fn(&Self, u32) -> Option<K>,
            max: usize,
        ) -> Vec<u64> {
            let mut picked = Vec::new();
            while picked.len() < max {
                let Some((_, user)) = self
                    .lanes
                    .keys()
                    .filter_map(|&u| Some((key(self, u)?, u)))
                    .min()
                else {
                    break;
                };
                let lane = self.lanes.get_mut(&user).unwrap();
                let item = lane.1.pop_front().unwrap();
                lane.2 += item.bytes;
                *self.group_served.entry(lane.0).or_default() += item.bytes;
                picked.push(item.seq_no);
            }
            picked
        }

        fn select_round(
            &mut self,
            now: SimInstant,
            aging_step: SimDuration,
            max: usize,
        ) -> Vec<u64> {
            let key = |r: &Self, user: u32| {
                let (group, pending, served) = &r.lanes[&user];
                let head = pending.front()?;
                Some((
                    std::cmp::Reverse(head.effective_priority(now, aging_step)),
                    r.group_served.get(group).copied().unwrap_or(0),
                    *served,
                    user,
                    head.seq_no,
                ))
            };
            self.select(key, max)
        }

        fn select_fifo(&mut self, max: usize) -> Vec<u64> {
            self.select(|r, user| Some(r.lanes[&user].1.front()?.seq_no), max)
        }

        fn active_users(&self) -> usize {
            self.lanes.values().filter(|l| !l.1.is_empty()).count()
        }
    }

    #[test]
    fn picks_match_a_full_scan_reference() {
        const PRIOS: [Priority; 4] = [
            Priority::Batch,
            Priority::Normal,
            Priority::High,
            Priority::Urgent,
        ];
        let aging = SimDuration::from_secs(60);
        for seed in 0..8 {
            let mut rng = crate::TestRng(seed);
            let (mut q, mut r) = (FairShareQueue::new(), Reference::default());
            let (mut seq, mut now) = (0u64, 0u64);
            for step in 0..4_000 {
                // Alternate filling and draining spells, so lanes both pile
                // up and empty out.
                let filling = step / 500 % 2 == 0;
                let user = rng.below(200) as u32;
                // Mostly a fixed group per user, sometimes a move.
                let group = if rng.below(10) == 0 {
                    rng.below(4)
                } else {
                    user as u64 % 4
                } as u32;
                now += rng.below(30);
                match rng.below(10) + if filling { 0 } else { 3 } {
                    0..=5 => {
                        let prio = PRIOS[rng.below(4) as usize];
                        let mut it = item(seq, user, group, prio, 1 + rng.below(1 << 20));
                        it.submitted = SimInstant::EPOCH + SimDuration::from_secs(now);
                        seq += 1;
                        q.push(it.clone());
                        r.push(it);
                    }
                    6..=7 => {
                        let bytes = rng.below(1 << 22);
                        q.charge_served(user, group, bytes);
                        r.charge_served(user, group, bytes);
                    }
                    8..=10 => {
                        // A pick may land well after the submits it sees.
                        let at = SimInstant::EPOCH + SimDuration::from_secs(now + rng.below(1_200));
                        let max = rng.below(4) as usize;
                        let got: Vec<u64> = q
                            .select_round(at, aging, max)
                            .iter()
                            .map(|i| i.seq_no)
                            .collect();
                        assert_eq!(got, r.select_round(at, aging, max), "seed {seed}");
                    }
                    _ => {
                        let max = rng.below(4) as usize;
                        let got: Vec<u64> = q.select_fifo(max).iter().map(|i| i.seq_no).collect();
                        assert_eq!(got, r.select_fifo(max), "seed {seed}");
                    }
                }
                assert_eq!(q.active_users(), r.active_users());
                assert_eq!(q.len(), r.lanes.values().map(|l| l.1.len()).sum::<usize>());
                assert_eq!(q.served_bytes(user), r.lanes.get(&user).map_or(0, |l| l.2));
            }
        }
    }
}
