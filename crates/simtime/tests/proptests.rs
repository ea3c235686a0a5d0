//! Property tests for the virtual-time substrate invariants.

use copra_simtime::{Bandwidth, Clock, DataSize, SimDuration, SimInstant, Timeline, TimelinePool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    /// Reservations on one timeline never overlap and never start before
    /// their ready time, regardless of the (possibly out-of-order) ready
    /// times requested — gap-filling may *backfill* idle slots, but never
    /// double-books the resource.
    #[test]
    fn reservations_are_disjoint(
        ops in prop::collection::vec((0u64..1_000_000, 1u64..10_000_000), 1..64)
    ) {
        let t = Timeline::new("r", Bandwidth::from_bytes_per_sec(1_000_000), SimDuration::ZERO);
        let mut granted: Vec<(u64, u64)> = Vec::new();
        for (ready_ns, bytes) in ops {
            let r = t.transfer(SimInstant::from_nanos(ready_ns), DataSize::from_bytes(bytes));
            prop_assert!(r.end > r.start);
            prop_assert!(r.start >= SimInstant::from_nanos(ready_ns));
            granted.push((r.start.as_nanos(), r.end.as_nanos()));
        }
        granted.sort_unstable();
        for w in granted.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
    }

    /// Backfill: a later-issued op with an earlier ready time lands in the
    /// idle gap instead of queueing behind the far future.
    #[test]
    fn backfill_uses_idle_gaps(gap_start in 0u64..1_000, dur in 1u64..500) {
        let t = Timeline::new("r", Bandwidth::from_bytes_per_sec(1_000_000_000), SimDuration::ZERO);
        // Reserve far in the future first.
        let far = t.reserve(SimInstant::from_secs(1_000_000), SimDuration::from_secs(10));
        prop_assert_eq!(far.start, SimInstant::from_secs(1_000_000));
        // Now an op ready much earlier must not wait for it.
        let r = t.reserve(SimInstant::from_nanos(gap_start), SimDuration::from_nanos(dur));
        prop_assert_eq!(r.start, SimInstant::from_nanos(gap_start));
    }

    /// Busy time equals the sum of granted durations; bytes accumulate.
    #[test]
    fn accounting_is_exact(
        ops in prop::collection::vec(0u64..5_000_000, 1..40)
    ) {
        let t = Timeline::new("r", Bandwidth::mb_per_sec(100), SimDuration::from_micros(10));
        let mut busy = SimDuration::ZERO;
        let mut total = 0u64;
        for bytes in ops {
            let r = t.transfer(SimInstant::EPOCH, DataSize::from_bytes(bytes));
            busy += r.duration();
            total += bytes;
        }
        let s = t.stats();
        prop_assert_eq!(s.busy, busy);
        prop_assert_eq!(s.bytes, DataSize::from_bytes(total));
        // With all ops ready at the epoch, the timeline is never idle, so
        // next_free == total busy time.
        prop_assert_eq!(s.next_free, SimInstant::EPOCH + busy);
    }

    /// time_for is additive in bytes (within rounding) and monotone.
    #[test]
    fn time_for_monotone_additive(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let bw = Bandwidth::mb_per_sec(120);
        let ta = bw.time_for(DataSize::from_bytes(a));
        let tb = bw.time_for(DataSize::from_bytes(b));
        let tab = bw.time_for(DataSize::from_bytes(a + b));
        prop_assert!(tab >= ta.max(tb));
        let sum = (ta + tb).as_nanos() as i128;
        prop_assert!((tab.as_nanos() as i128 - sum).abs() <= 2, "rounding drift");
    }

    /// A pool's makespan for identical tasks is within one task of the ideal
    /// ceiling(n/k) schedule (all tasks ready at the epoch).
    #[test]
    fn pool_dispatch_near_optimal(n in 1usize..64, k in 1usize..8) {
        let pool = TimelinePool::new("d", k, Bandwidth::mb_per_sec(100), SimDuration::ZERO);
        for _ in 0..n {
            pool.transfer_earliest(SimInstant::EPOCH, DataSize::mb(100));
        }
        let rounds = n.div_ceil(k) as u64;
        prop_assert_eq!(pool.drain_time(), SimInstant::from_secs(rounds));
    }

    /// Dispatch stops at the first member free at `ready`, and still picks
    /// what a scan of every member picks: the lowest index among the
    /// members with the earliest start. Histories reserved out of order
    /// leave backfill gaps; members without history tie; half the probes
    /// are ready exactly where a reservation starts or ends, so a gap
    /// opens right at `ready`.
    #[test]
    fn pool_dispatch_matches_full_scan(
        k in 1usize..7,
        history in prop::collection::vec((0usize..7, 0u64..20_000, 1u64..2_000), 0..60),
        probes in prop::collection::vec((0usize..64, 0u64..20_000, 0u64..2_000), 1..60),
    ) {
        let bw = Bandwidth::from_bytes_per_sec(1_000_000_000);
        let pool = TimelinePool::new("d", k, bw, SimDuration::ZERO);
        let mut edges = vec![0u64];
        for (m, ready, dur) in history {
            let r = pool
                .member(m % k)
                .reserve(SimInstant::from_nanos(ready), SimDuration::from_nanos(dur));
            edges.extend([r.start.as_nanos(), r.end.as_nanos()]);
        }
        for (pick, raw, bytes) in probes {
            let ready = if pick < 32 { edges[pick % edges.len()] } else { raw };
            let ready = SimInstant::from_nanos(ready);
            let bytes = DataSize::from_bytes(bytes);
            let dur = bw.time_for(bytes);
            let (start, want) = (0..k)
                .map(|i| (pool.member(i).earliest_start(ready, dur), i))
                .min()
                .unwrap();
            let (idx, r) = pool.transfer_earliest(ready, bytes);
            prop_assert_eq!(idx, want);
            prop_assert_eq!(r.start, start);
            prop_assert_eq!(r.end, start + dur);
            edges.extend([r.start.as_nanos(), r.end.as_nanos()]);
        }
    }

    /// Clock settles at the max of all advances.
    #[test]
    fn clock_is_max_register(vals in prop::collection::vec(0u64..1u64<<48, 1..50)) {
        let c = Clock::new();
        let mut max = 0;
        for v in &vals {
            c.advance_to(SimInstant::from_nanos(*v));
            max = max.max(*v);
        }
        prop_assert_eq!(c.now(), SimInstant::from_nanos(max));
    }
}

/// The first-fit backfill rule as a plain linear scan over a `Vec` that
/// drops its first gap when full: the reference the timeline's
/// binary-searched gap deque must agree with grant for grant.
struct LinearFirstFit {
    next_free: u64,
    gaps: Vec<(u64, u64)>,
    evicted: usize,
}

impl LinearFirstFit {
    const MAX_GAPS: usize = 1024;

    fn fit(&self, ready: u64, dur: u64) -> Option<(usize, u64)> {
        self.gaps.iter().enumerate().find_map(|(i, &(a, b))| {
            let s = a.max(ready);
            (s <= b && s + dur <= b).then_some((i, s))
        })
    }

    fn earliest_start(&self, ready: u64, dur: u64) -> u64 {
        self.fit(ready, dur)
            .map_or(self.next_free.max(ready), |(_, s)| s)
    }

    fn reserve(&mut self, ready: u64, dur: u64) -> u64 {
        if ready >= self.next_free {
            let skipped = self.next_free;
            self.next_free = ready + dur;
            self.insert_gap(skipped, ready);
            return ready;
        }
        let Some((i, s)) = self.fit(ready, dur) else {
            let start = self.next_free;
            self.next_free = start + dur;
            return start;
        };
        if dur > 0 {
            let (a, b) = self.gaps.remove(i);
            let rest = [(a, s), (s + dur, b)];
            let rest = rest.into_iter().filter(|&(x, y)| x < y);
            self.gaps.splice(i..i, rest);
        }
        s
    }

    fn insert_gap(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if self.gaps.len() >= Self::MAX_GAPS {
            self.gaps.remove(0);
            self.evicted += 1;
        }
        let pos = self.gaps.partition_point(|&(a, _)| a < start);
        self.gaps.insert(pos, (start, end));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thousands of ops — enough to overflow the gap list — with ready
    /// times ahead of the frontier (publishing gaps), just behind it and
    /// deep in the past (backfilling): every probe and every grant matches
    /// the linear first-fit reference exactly.
    #[test]
    fn gap_search_matches_linear_first_fit(seed in any::<u64>(), n in 3_000usize..5_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Timeline::new("r", Bandwidth::ZERO, SimDuration::ZERO);
        let mut reference = LinearFirstFit { next_free: 0, gaps: Vec::new(), evicted: 0 };
        for op in 0..n {
            let frontier = t.next_free().as_nanos();
            prop_assert_eq!(frontier, reference.next_free);
            let ready = match rng.gen_range(0..10u32) {
                0..=4 => frontier + rng.gen_range(1..2_000),
                5 => frontier,
                6..=7 => frontier.saturating_sub(rng.gen_range(0..5_000)),
                _ => rng.gen_range(0..=frontier),
            };
            let dur = rng.gen_range(0..1_500u64);
            let (ready_at, dur_for) = (SimInstant::from_nanos(ready), SimDuration::from_nanos(dur));
            let probe = t.earliest_start(ready_at, dur_for).as_nanos();
            prop_assert_eq!(probe, reference.earliest_start(ready, dur), "probe of op {}", op);
            let granted = t.reserve(ready_at, dur_for);
            let expected = reference.reserve(ready, dur);
            prop_assert_eq!(granted.start.as_nanos(), expected, "grant of op {}", op);
            prop_assert_eq!(granted.duration().as_nanos(), dur);
        }
        prop_assert!(reference.evicted > 0, "{} ops never filled the gap list", n);
    }

    /// The backfill search starts where the previous one landed. Ready
    /// times mostly track the frontier, so that hint usually holds; some
    /// jump deep into the past, so it must be refused and the whole list
    /// searched. Small backfills split long gaps, which grows the list past
    /// `MAX_GAPS`. Every probe and every grant matches the linear first-fit
    /// reference exactly.
    #[test]
    fn hinted_gap_search_matches_linear_first_fit(seed in any::<u64>(), n in 3_000usize..4_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Timeline::new("r", Bandwidth::ZERO, SimDuration::ZERO);
        let mut reference = LinearFirstFit { next_free: 0, gaps: Vec::new(), evicted: 0 };
        let mut longest = 0;
        for op in 0..n {
            let frontier = t.next_free().as_nanos();
            let (ready, dur) = match rng.gen_range(0..10u32) {
                0..=3 => (frontier + rng.gen_range(1_000..5_000), rng.gen_range(0..200)),
                4..=8 => (frontier.saturating_sub(rng.gen_range(0..8_000)), rng.gen_range(0..50)),
                _ => (rng.gen_range(0..=frontier), rng.gen_range(0..1_500)),
            };
            let (ready_at, dur_for) = (SimInstant::from_nanos(ready), SimDuration::from_nanos(dur));
            let probe = t.earliest_start(ready_at, dur_for).as_nanos();
            prop_assert_eq!(probe, reference.earliest_start(ready, dur), "probe of op {}", op);
            let granted = t.reserve(ready_at, dur_for).start.as_nanos();
            prop_assert_eq!(granted, reference.reserve(ready, dur), "grant of op {}", op);
            longest = longest.max(reference.gaps.len());
        }
        prop_assert!(longest > LinearFirstFit::MAX_GAPS, "the list peaked at {} gaps", longest);
    }
}
