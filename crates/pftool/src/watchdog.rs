//! The WatchDog (§4.1.1 item c), in simulated time.
//!
//! The Manager reports every committed completion and every restored
//! file, in simulated-time order. The WatchDog keeps one progress sample
//! per check interval and reports a stall when two reports lie further
//! apart than the stall budget — data movement that went quiet for that
//! long in the simulated archive, whatever the host's speed.

use crate::config::PftoolConfig;
use crate::report::ProgressSample;
use copra_simtime::{SimDuration, SimInstant};

/// Progress recorder and stall detector of one run.
#[derive(Debug)]
pub struct WatchDog {
    interval_secs: f64,
    stall: SimDuration,
    start: SimInstant,
    last_progress: SimInstant,
    samples: Vec<ProgressSample>,
}

impl WatchDog {
    pub fn new(config: &PftoolConfig, start: SimInstant) -> Self {
        WatchDog {
            interval_secs: config.watchdog_interval.as_secs_f64(),
            stall: SimDuration::from_nanos(config.watchdog_stall.as_nanos() as u64),
            start,
            last_progress: start,
            samples: Vec::new(),
        }
    }

    /// Progress at `now` brought the run's totals to (`files`, `bytes`).
    /// Returns true when the gap since the previous report exceeded the
    /// stall budget.
    pub fn progress(&mut self, now: SimInstant, files: u64, bytes: u64) -> bool {
        let stalled = now.saturating_since(self.last_progress) > self.stall;
        self.last_progress = self.last_progress.max(now);
        let sim_secs = self
            .last_progress
            .saturating_since(self.start)
            .as_secs_f64();
        match self.samples.last_mut() {
            Some(last) if sim_secs - last.sim_secs < self.interval_secs => {
                last.files = files;
                last.bytes = bytes;
            }
            _ => self.samples.push(ProgressSample {
                sim_secs,
                files,
                bytes,
            }),
        }
        stalled
    }

    /// The progress history, one sample per check interval.
    pub fn into_samples(self) -> Vec<ProgressSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn dog(interval_ms: u64, stall_ms: u64) -> WatchDog {
        let config = PftoolConfig {
            watchdog_interval: Duration::from_millis(interval_ms),
            watchdog_stall: Duration::from_millis(stall_ms),
            ..PftoolConfig::default()
        };
        WatchDog::new(&config, SimInstant::from_secs(10))
    }

    fn at_ms(ms: u64) -> SimInstant {
        SimInstant::from_nanos(10_000_000_000 + ms * 1_000_000)
    }

    #[test]
    fn stall_is_a_gap_between_completions() {
        let mut d = dog(1, 100);
        assert!(!d.progress(at_ms(100), 1, 1));
        assert!(!d.progress(at_ms(150), 2, 2));
        assert!(d.progress(at_ms(251), 3, 3));
        // An out-of-order completion never moves progress backwards.
        assert!(!d.progress(at_ms(200), 4, 4));
        assert!(!d.progress(at_ms(300), 5, 5));
    }

    #[test]
    fn one_sample_per_interval_holding_the_latest_totals() {
        let mut d = dog(100, 1_000);
        for (ms, files) in [(0, 1), (40, 2), (99, 3), (100, 4), (350, 5)] {
            d.progress(at_ms(ms), files, files * 10);
        }
        let s = d.into_samples();
        let got: Vec<(u64, u64)> = s
            .iter()
            .map(|p| ((p.sim_secs * 1e3).round() as u64, p.files))
            .collect();
        assert_eq!(got, vec![(0, 3), (100, 4), (350, 5)]);
        assert_eq!(s[2].bytes, 50);
    }
}
