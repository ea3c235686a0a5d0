//! Runtime-tunable parameters (§4.1.2-5).

use copra_simtime::DataSize;
use std::time::Duration;

/// The tunables the paper lists for each PFTool invocation: process
/// counts, tape-drive usage, copy sizes, fuse chunk size and the tape
/// restore-ordering flag.
#[derive(Debug, Clone)]
pub struct PftoolConfig {
    /// ReadDir processes (parallel tree walk width).
    pub readdir_procs: usize,
    /// Worker processes (stat + data movement).
    pub workers: usize,
    /// TapeProc processes (parallel tape restore streams). Zero for pure
    /// archive (disk→tape direction) runs, as in Figure 4's note.
    pub tape_procs: usize,
    /// Files at or above this size are copied as N parallel sub-chunks
    /// (§4.1.2-3, the 10–100 GB regime).
    pub parallel_copy_threshold: DataSize,
    /// Sub-chunk size for single-large-file parallel copy.
    pub copy_chunk: DataSize,
    /// Sort each tape's restore queue by tape sequence number (§4.1.2-2).
    /// Disabled = the unordered baseline PFTool exists to beat.
    pub tape_ordering: bool,
    /// Skip files already present and up-to-date at the destination, and
    /// re-send only stale chunks of chunked files (§4.5).
    pub restart: bool,
    /// WatchDog: simulated-time interval between progress samples (and
    /// queue-depth samples).
    pub watchdog_interval: Duration,
    /// WatchDog: force termination when two progress instants (completed
    /// jobs or restored files) lie further apart than this in simulated
    /// time.
    pub watchdog_stall: Duration,
}

impl Default for PftoolConfig {
    fn default() -> Self {
        PftoolConfig {
            readdir_procs: 2,
            workers: 8,
            tape_procs: 2,
            parallel_copy_threshold: DataSize::gb(10),
            copy_chunk: DataSize::gb(1),
            tape_ordering: true,
            restart: false,
            watchdog_interval: Duration::from_millis(200),
            // One simulated hour: tape mounts, drive queueing and large chunk
            // copies put minutes between progress instants (111 s at most in
            // the tests, bench binaries and examples).
            watchdog_stall: Duration::from_secs(3600),
        }
    }
}

impl PftoolConfig {
    /// Total MPI world size: manager + output + watchdog + readdirs +
    /// workers + tapeprocs.
    pub fn world_size(&self) -> usize {
        3 + self.readdir_procs + self.workers + self.tape_procs
    }

    /// A small configuration for unit tests.
    pub fn test_small() -> Self {
        PftoolConfig {
            readdir_procs: 1,
            workers: 3,
            tape_procs: 1,
            parallel_copy_threshold: DataSize::mb(64),
            copy_chunk: DataSize::mb(16),
            ..PftoolConfig::default()
        }
    }

    pub fn validate(&self) {
        assert!(self.readdir_procs >= 1, "need at least one ReadDir proc");
        assert!(self.workers >= 1, "need at least one Worker");
        assert!(
            !self.copy_chunk.is_zero(),
            "copy chunk size must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_size_adds_up() {
        let c = PftoolConfig::default();
        assert_eq!(c.world_size(), 3 + 2 + 8 + 2);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one Worker")]
    fn zero_workers_rejected() {
        let c = PftoolConfig {
            workers: 0,
            ..PftoolConfig::default()
        };
        c.validate();
    }
}
