//! A shared monotone simulated clock.
//!
//! Components that need a loose notion of "now" (the WatchDog's stall
//! detector, the ILM policy's file ages, job arrival processes) read
//! and advance a [`Clock`]. The clock is monotone: `advance_to` with an
//! earlier instant is a no-op, so completion times may be published in any
//! order.

use crate::time::SimInstant;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared monotone simulated clock (cheap to clone; handles share state).
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now_nanos: Arc<AtomicU64>,
}

impl Clock {
    pub fn new() -> Self {
        Clock::default()
    }

    pub fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.now_nanos.load(Ordering::Acquire))
    }

    /// Move the clock forward to `at`; never moves backwards. Returns the
    /// clock value after the call.
    pub fn advance_to(&self, at: SimInstant) -> SimInstant {
        let prev = self.now_nanos.fetch_max(at.as_nanos(), Ordering::AcqRel);
        SimInstant::from_nanos(prev.max(at.as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn starts_at_epoch() {
        assert_eq!(Clock::new().now(), SimInstant::EPOCH);
    }

    #[test]
    fn advance_is_monotone() {
        let c = Clock::new();
        c.advance_to(SimInstant::from_secs(10));
        c.advance_to(SimInstant::from_secs(5));
        assert_eq!(c.now(), SimInstant::from_secs(10));
    }

    #[test]
    fn clones_share_state() {
        let c = Clock::new();
        let c2 = c.clone();
        c.advance_to(SimInstant::from_secs(3));
        assert_eq!(c2.now(), SimInstant::from_secs(3));
    }

    #[test]
    fn concurrent_advances_settle_at_max() {
        let c = Clock::new();
        let mut handles = Vec::new();
        for i in 1..=8u64 {
            let c = c.clone();
            handles.push(thread::spawn(move || {
                for j in 0..1000u64 {
                    c.advance_to(SimInstant::from_nanos(i * 1000 + j));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), SimInstant::from_nanos(8 * 1000 + 999));
    }
}
