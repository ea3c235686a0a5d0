//! Tape drive timing parameters.

use copra_simtime::{Bandwidth, DataSize, SimDuration};
use serde::{Deserialize, Serialize};

/// Mechanical timing model for one drive generation.
///
/// The defaults ([`TapeTiming::lto4`]) are calibrated so the paper's §6.1
/// observation falls out: an 8 MB-per-transaction migration stream runs at
/// ≈4 MB/s against a ~120 MB/s rated drive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TapeTiming {
    /// Robot arm pick/move/place — serialized on the single library robot.
    pub robot_move: SimDuration,
    /// Drive load + thread, per mount (charged on the drive).
    pub mount: SimDuration,
    /// Unthread + unload + robot return, per dismount.
    pub unload: SimDuration,
    /// Reading and checking the volume label (charged on mount and on every
    /// storage-agent hand-off).
    pub label_verify: SimDuration,
    /// Stop/reposition/restart between write transactions ("backhitch").
    pub backhitch: SimDuration,
    /// Fixed component of a locate to an arbitrary record.
    pub locate_fixed: SimDuration,
    /// High-speed locate rate (bytes of tape passed per second).
    pub locate_rate: Bandwidth,
    /// Fixed component of a rewind.
    pub rewind_fixed: SimDuration,
    /// Rewind rate (bytes of tape passed per second).
    pub rewind_rate: Bandwidth,
    /// Streaming read/write bandwidth.
    pub stream: Bandwidth,
    /// Native cartridge capacity.
    pub capacity: DataSize,
}

impl TapeTiming {
    /// LTO-4 generation (the paper's hardware).
    pub fn lto4() -> Self {
        TapeTiming {
            robot_move: SimDuration::from_secs(8),
            mount: SimDuration::from_secs(15),
            unload: SimDuration::from_secs(20),
            label_verify: SimDuration::from_secs(3),
            backhitch: SimDuration::from_millis(1_930),
            locate_fixed: SimDuration::from_secs(3),
            // full 800 GB pass in ~60 s of high-speed locate
            locate_rate: Bandwidth::from_bytes_per_sec(13_300_000_000),
            rewind_fixed: SimDuration::from_secs(2),
            rewind_rate: Bandwidth::from_bytes_per_sec(13_300_000_000),
            stream: Bandwidth::mb_per_sec(120),
            capacity: DataSize::gb(800),
        }
    }

    /// An idealized frictionless drive (unit tests that want pure streaming
    /// numbers).
    pub fn frictionless(stream: Bandwidth, capacity: DataSize) -> Self {
        TapeTiming {
            robot_move: SimDuration::ZERO,
            mount: SimDuration::ZERO,
            unload: SimDuration::ZERO,
            label_verify: SimDuration::ZERO,
            backhitch: SimDuration::ZERO,
            locate_fixed: SimDuration::ZERO,
            locate_rate: Bandwidth::gb_per_sec(1_000),
            rewind_fixed: SimDuration::ZERO,
            rewind_rate: Bandwidth::gb_per_sec(1_000),
            stream,
            capacity,
        }
    }

    /// Time for a locate across `distance` bytes of tape.
    pub fn locate_time(&self, distance: DataSize) -> SimDuration {
        if distance.is_zero() {
            return SimDuration::ZERO;
        }
        self.locate_fixed + self.locate_rate.time_for(distance)
    }

    /// Time to rewind from byte position `from` to beginning of tape.
    pub fn rewind_time(&self, from: DataSize) -> SimDuration {
        if from.is_zero() {
            return SimDuration::ZERO;
        }
        self.rewind_fixed + self.rewind_rate.time_for(from)
    }

    /// Effective rate for a stream of `file_size` writes, one transaction
    /// each — the §6.1 small-file arithmetic.
    #[cfg(test)]
    fn effective_write_rate(&self, file_size: DataSize) -> Bandwidth {
        let per_file = self.backhitch + self.stream.time_for(file_size);
        copra_simtime::rate::achieved_rate(file_size, per_file)
    }
}

impl Default for TapeTiming {
    fn default() -> Self {
        TapeTiming::lto4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lto4_reproduces_the_small_file_collapse() {
        let t = TapeTiming::lto4();
        // §6.1: 8 MB files migrate at ~4 MB/s instead of ~100+ MB/s.
        let small = t.effective_write_rate(DataSize::mb(8)).as_mb_per_sec_f64();
        assert!((3.5..4.5).contains(&small), "8MB effective rate {small}");
        // Large files approach the rated streaming speed.
        let big = t.effective_write_rate(DataSize::gb(10)).as_mb_per_sec_f64();
        assert!(big > 115.0, "10GB effective rate {big}");
    }

    #[test]
    fn locate_and_rewind_scale_with_distance() {
        let t = TapeTiming::lto4();
        let near = t.locate_time(DataSize::gb(1));
        let far = t.locate_time(DataSize::gb(700));
        assert!(far > near);
        assert!(t.rewind_time(DataSize::ZERO).is_zero());
        assert!(t.locate_time(DataSize::ZERO).is_zero());
        // full-tape pass takes on the order of a minute
        let full = t.locate_time(DataSize::gb(800)).as_secs_f64();
        assert!((50.0..90.0).contains(&full), "full locate {full}s");
    }

    #[test]
    fn frictionless_is_pure_streaming() {
        let t = TapeTiming::frictionless(Bandwidth::mb_per_sec(100), DataSize::gb(10));
        assert_eq!(
            t.effective_write_rate(DataSize::mb(8)).as_bytes_per_sec(),
            Bandwidth::mb_per_sec(100).as_bytes_per_sec()
        );
    }
}
