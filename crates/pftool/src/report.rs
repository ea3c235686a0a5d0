//! Run reports — "a performance report is generated after finishing each
//! parallel archive job" (§4.1.1). These feed Figures 8–11 directly.

use copra_simtime::{rate::achieved_rate, DataSize, SimInstant};
use serde::{Deserialize, Serialize};

/// One WatchDog progress sample — "the current and historical statistics
/// of PFTool such as total number of files copied, number of files copied
/// in the past T minutes" (§4.1.1 WatchDog (a)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgressSample {
    /// Simulated seconds since the run started.
    pub sim_secs: f64,
    /// Cumulative files completed at this sample.
    pub files: u64,
    /// Cumulative bytes completed at this sample.
    pub bytes: u64,
}

/// Statistics common to every PFTool run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Regular files processed (copied / listed / compared).
    pub files: u64,
    /// Directories traversed.
    pub dirs: u64,
    /// Payload bytes moved (or compared).
    pub bytes: u64,
    /// Files skipped by restart logic (§4.5).
    pub skipped_files: u64,
    /// Bytes skipped by restart logic.
    pub skipped_bytes: u64,
    /// Files restored from tape before copying.
    pub tape_restores: u64,
    /// Move jobs handed from one worker to another. Always 0: the Manager
    /// gives out one job at a time, so there is nothing to steal. Kept
    /// for readers of earlier reports.
    pub stolen_jobs: u64,
    /// Simulated start of the run.
    pub sim_start: SimInstant,
    /// Simulated completion (max over all device reservations).
    pub sim_end: SimInstant,
    /// Real (host) seconds the run took — the machinery's own speed.
    pub wall_seconds: f64,
    /// Errors encountered (path, message).
    pub errors: Vec<(String, String)>,
    /// True if the WatchDog force-terminated the run.
    pub aborted: bool,
    /// The WatchDog's progress history (sampled at its check interval).
    pub progress_samples: Vec<ProgressSample>,
}

impl RunStats {
    /// Achieved data rate in simulated MB/s (the Figure 10 metric).
    pub fn rate_mb_s(&self) -> f64 {
        achieved_rate(
            DataSize::from_bytes(self.bytes),
            self.sim_end.saturating_since(self.sim_start),
        )
        .as_mb_per_sec_f64()
    }

    /// Simulated elapsed seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_end.saturating_since(self.sim_start).as_secs_f64()
    }

    /// Average file size in MB (the Figure 11 metric).
    #[cfg(test)]
    pub fn avg_file_mb(&self) -> f64 {
        if self.files == 0 {
            0.0
        } else {
            self.bytes as f64 / self.files as f64 / 1e6
        }
    }

    pub fn ok(&self) -> bool {
        self.errors.is_empty() && !self.aborted
    }
}

/// `pfls` result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ListReport {
    pub stats: RunStats,
    /// One formatted line per entry, in output order.
    pub lines: Vec<String>,
}

/// `pfcp` result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CopyReport {
    pub stats: RunStats,
}

/// `pfcm` result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompareReport {
    pub stats: RunStats,
    /// Paths whose contents differ between source and destination.
    pub mismatches: Vec<String>,
}

impl CompareReport {
    pub fn identical(&self) -> bool {
        self.mismatches.is_empty() && self.stats.ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_averages() {
        let stats = RunStats {
            files: 4,
            bytes: 400_000_000,
            sim_start: SimInstant::from_secs(10),
            sim_end: SimInstant::from_secs(20),
            ..RunStats::default()
        };
        assert!((stats.rate_mb_s() - 40.0).abs() < 1e-9);
        assert!((stats.avg_file_mb() - 100.0).abs() < 1e-9);
        assert!((stats.sim_seconds() - 10.0).abs() < 1e-9);
        assert!(stats.ok());
    }

    #[test]
    fn zero_cases() {
        let stats = RunStats::default();
        assert_eq!(stats.rate_mb_s(), 0.0);
        assert_eq!(stats.avg_file_mb(), 0.0);
    }

    #[test]
    fn ok_rejects_errors_and_aborts() {
        let mut stats = RunStats::default();
        assert!(stats.ok());
        stats.errors.push(("/p".into(), "io error".into()));
        assert!(!stats.ok());
        let aborted = RunStats {
            aborted: true,
            ..RunStats::default()
        };
        assert!(!aborted.ok());
    }

    #[test]
    fn rate_is_zero_for_degenerate_intervals() {
        // Bytes moved in zero simulated time must not divide by zero.
        let instant = RunStats {
            bytes: 5_000_000,
            sim_start: SimInstant::from_secs(7),
            sim_end: SimInstant::from_secs(7),
            ..RunStats::default()
        };
        assert_eq!(instant.rate_mb_s(), 0.0);
        assert_eq!(instant.sim_seconds(), 0.0);
        // An end before the start saturates instead of panicking.
        let backwards = RunStats {
            bytes: 5_000_000,
            sim_start: SimInstant::from_secs(9),
            sim_end: SimInstant::from_secs(7),
            ..RunStats::default()
        };
        assert_eq!(backwards.rate_mb_s(), 0.0);
    }

    #[test]
    fn reports_serde_round_trip() {
        let stats = RunStats {
            files: 3,
            dirs: 1,
            bytes: 123_456,
            skipped_files: 1,
            skipped_bytes: 99,
            tape_restores: 2,
            stolen_jobs: 4,
            sim_start: SimInstant::from_secs(1),
            sim_end: SimInstant::from_secs(4),
            wall_seconds: 0.25,
            errors: vec![("/a".into(), "io".into())],
            aborted: false,
            progress_samples: vec![
                ProgressSample {
                    sim_secs: 0.1,
                    files: 1,
                    bytes: 40,
                },
                ProgressSample {
                    sim_secs: 0.3,
                    files: 3,
                    bytes: 123_456,
                },
            ],
        };

        let copy = CopyReport {
            stats: stats.clone(),
        };
        let back: CopyReport =
            serde_json::from_str(&serde_json::to_string(&copy).unwrap()).unwrap();
        assert_eq!(back.stats.files, stats.files);
        assert_eq!(back.stats.bytes, stats.bytes);
        assert_eq!(back.stats.sim_end, stats.sim_end);
        assert_eq!(back.stats.errors, stats.errors);
        assert_eq!(back.stats.progress_samples, stats.progress_samples);
        assert!((back.stats.rate_mb_s() - stats.rate_mb_s()).abs() < 1e-12);

        let list = ListReport {
            stats: stats.clone(),
            lines: vec!["-rw- /a 1".into(), "drw- /d".into()],
        };
        let back: ListReport =
            serde_json::from_str(&serde_json::to_string(&list).unwrap()).unwrap();
        assert_eq!(back.lines, list.lines);
        assert_eq!(back.stats.dirs, stats.dirs);

        let cmp = CompareReport {
            stats,
            mismatches: vec!["/a/diff".into()],
        };
        let back: CompareReport =
            serde_json::from_str(&serde_json::to_string(&cmp).unwrap()).unwrap();
        assert_eq!(back.mismatches, cmp.mismatches);
        assert!(!back.identical());
    }
}
