//! Multi-threaded stress test for the timeline invariants under contention.
//!
//! The timeline's single lock (see `timeline.rs`) must uphold the same
//! guarantees the sequential property tests pin down, now with 16 threads
//! hammering one timeline: reservations never overlap, the frontier never
//! moves backwards, and the stats sum exactly.

use copra_simtime::{Bandwidth, DataSize, SimDuration, SimInstant, Timeline};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: usize = 16;
const OPS_PER_THREAD: usize = 10_000;

#[test]
fn timeline_invariants_hold_under_contention() {
    let t = Timeline::new(
        "stress",
        Bandwidth::from_bytes_per_sec(1_000_000_000),
        SimDuration::ZERO,
    );
    let granted: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let frontier_regressions = AtomicU64::new(0);
    let expected_busy = AtomicU64::new(0);
    let expected_bytes = AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let t = t.clone();
            let granted = &granted;
            let frontier_regressions = &frontier_regressions;
            let expected_busy = &expected_busy;
            let expected_bytes = &expected_bytes;
            s.spawn(move || {
                let mut local = Vec::with_capacity(OPS_PER_THREAD);
                // Deterministic per-thread pseudo-random ready times and
                // sizes: a mix of FIFO-contiguous ops (ready 0 → frontier
                // path) and far-future ops (gap creation → backfill path).
                let mut x = (tid as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                for _ in 0..OPS_PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let ready = match x % 4 {
                        0 => 0,                        // always below frontier
                        1 => x % 1_000_000,            // near past/future
                        _ => (x >> 8) % 1_000_000_000, // scattered
                    };
                    let bytes = 1 + x % 10_000; // 1 ns/byte at this bandwidth
                    let before = t.next_free().as_nanos();
                    let r = t.transfer(SimInstant::from_nanos(ready), DataSize::from_bytes(bytes));
                    let after = t.next_free().as_nanos();
                    if after < before {
                        frontier_regressions.fetch_add(1, Ordering::Relaxed);
                    }
                    assert!(r.end > r.start, "empty grant");
                    assert!(
                        r.start.as_nanos() >= ready,
                        "grant starts before ready time"
                    );
                    expected_busy.fetch_add(r.duration().as_nanos(), Ordering::Relaxed);
                    expected_bytes.fetch_add(bytes, Ordering::Relaxed);
                    local.push((r.start.as_nanos(), r.end.as_nanos()));
                }
                granted.lock().extend(local);
            });
        }
    });

    // No reservation may overlap any other.
    let mut all = granted.into_inner();
    assert_eq!(all.len(), THREADS * OPS_PER_THREAD);
    all.sort_unstable();
    for w in all.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "overlapping reservations: {:?} then {:?}",
            w[0],
            w[1]
        );
    }

    // The frontier is monotone as observed by every thread.
    assert_eq!(frontier_regressions.load(Ordering::Relaxed), 0);

    // Stats sum exactly despite relaxed accumulation.
    let s = t.stats();
    assert_eq!(s.ops, (THREADS * OPS_PER_THREAD) as u64);
    assert_eq!(
        s.busy,
        SimDuration::from_nanos(expected_busy.load(Ordering::Relaxed))
    );
    assert_eq!(
        s.bytes,
        DataSize::from_bytes(expected_bytes.load(Ordering::Relaxed))
    );
    // next_free equals the max granted end (frontier claims define it).
    let max_end = all.iter().map(|&(_, e)| e).max().unwrap();
    assert_eq!(s.next_free.as_nanos(), max_end);
}
