//! Data sizes and transfer rates.
//!
//! The paper mixes decimal units (LTO-4's "120 MB/s", "10-Gigabit
//! Ethernet") with binary file sizes; we keep both constructors and make
//! the distinction explicit at each call site.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

pub const KB: u64 = 1_000;
pub const MB: u64 = 1_000_000;
pub const GB: u64 = 1_000_000_000;
pub const TB: u64 = 1_000_000_000_000;
pub const MIB: u64 = 1 << 20;
pub const GIB: u64 = 1 << 30;
pub const TIB: u64 = 1 << 40;

/// A byte count with unit-aware constructors and display.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DataSize(u64);

impl DataSize {
    pub const ZERO: DataSize = DataSize(0);

    pub const fn from_bytes(bytes: u64) -> Self {
        DataSize(bytes)
    }
    pub const fn kb(n: u64) -> Self {
        DataSize(n * KB)
    }
    pub const fn mb(n: u64) -> Self {
        DataSize(n * MB)
    }
    pub const fn gb(n: u64) -> Self {
        DataSize(n * GB)
    }
    pub const fn tb(n: u64) -> Self {
        DataSize(n * TB)
    }
    pub const fn mib(n: u64) -> Self {
        DataSize(n * MIB)
    }
    pub const fn gib(n: u64) -> Self {
        DataSize(n * GIB)
    }

    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn saturating_sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }
}

impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 + rhs.0)
    }
}

impl AddAssign for DataSize {
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 += rhs.0;
    }
}

impl Sub for DataSize {
    type Output = DataSize;
    fn sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= TB {
            write!(f, "{:.2}TB", b / TB as f64)
        } else if self.0 >= GB {
            write!(f, "{:.2}GB", b / GB as f64)
        } else if self.0 >= MB {
            write!(f, "{:.2}MB", b / MB as f64)
        } else if self.0 >= KB {
            write!(f, "{:.2}KB", b / KB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A transfer rate in bytes per (simulated) second.
///
/// `Bandwidth::ZERO` is allowed as a sentinel for "latency-only" resources
/// (e.g. a metadata server hop); transferring a non-zero payload over a
/// zero-bandwidth resource is a programming error and panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth {
    bytes_per_sec: u64,
}

impl Bandwidth {
    pub const ZERO: Bandwidth = Bandwidth { bytes_per_sec: 0 };

    pub const fn from_bytes_per_sec(bytes_per_sec: u64) -> Self {
        Bandwidth { bytes_per_sec }
    }

    /// Decimal megabytes per second (tape vendors quote these).
    pub const fn mb_per_sec(n: u64) -> Self {
        Bandwidth {
            bytes_per_sec: n * MB,
        }
    }

    /// Decimal gigabytes per second.
    pub const fn gb_per_sec(n: u64) -> Self {
        Bandwidth {
            bytes_per_sec: n * GB,
        }
    }

    /// Network link rate in gigabits per second (10GigE = `gbit_per_sec(10)`).
    pub const fn gbit_per_sec(n: u64) -> Self {
        Bandwidth {
            bytes_per_sec: n * GB / 8,
        }
    }

    pub const fn as_bytes_per_sec(self) -> u64 {
        self.bytes_per_sec
    }

    pub fn as_mb_per_sec_f64(self) -> f64 {
        self.bytes_per_sec as f64 / MB as f64
    }

    pub const fn is_zero(self) -> bool {
        self.bytes_per_sec == 0
    }

    /// Simulated time to move `bytes` at this rate.
    ///
    /// Panics if the bandwidth is zero and `bytes > 0`.
    pub fn time_for(self, bytes: DataSize) -> SimDuration {
        if bytes.is_zero() {
            return SimDuration::ZERO;
        }
        assert!(
            self.bytes_per_sec > 0,
            "attempted to transfer {bytes} over a zero-bandwidth resource"
        );
        // nanos = bytes * 1e9 / rate, exact in u64 up to ~18 GB and in u128
        // above that, where the product overflows a u64.
        let nanos = match bytes.as_bytes().checked_mul(crate::time::NANOS_PER_SEC) {
            Some(scaled) => scaled / self.bytes_per_sec,
            None => {
                let scaled = bytes.as_bytes() as u128 * crate::time::NANOS_PER_SEC as u128;
                (scaled / self.bytes_per_sec as u128) as u64
            }
        };
        SimDuration::from_nanos(nanos)
    }

    /// Scale the rate by a factor (e.g. derate a trunk to its achievable
    /// fraction). Factor is clamped to be non-negative.
    pub fn scaled(self, factor: f64) -> Bandwidth {
        let f = factor.max(0.0);
        Bandwidth {
            bytes_per_sec: (self.bytes_per_sec as f64 * f) as u64,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/s", DataSize::from_bytes(self.bytes_per_sec))
    }
}

/// Compute an achieved rate from bytes moved and elapsed simulated time.
/// Returns zero bandwidth for zero elapsed time.
pub fn achieved_rate(bytes: DataSize, elapsed: SimDuration) -> Bandwidth {
    if elapsed.is_zero() {
        return Bandwidth::ZERO;
    }
    let bps = (bytes.as_bytes() as u128 * crate::time::NANOS_PER_SEC as u128)
        / elapsed.as_nanos() as u128;
    Bandwidth::from_bytes_per_sec(bps as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lto4_rate_matches_paper_numbers() {
        // LTO-4 rated at ~120 MB/s: an 8 MB file takes 1/15 s of streaming.
        let lto4 = Bandwidth::mb_per_sec(120);
        let t = lto4.time_for(DataSize::mb(8));
        assert!((t.as_secs_f64() - 8.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn ten_gige_moves_1gb_in_under_a_second() {
        let link = Bandwidth::gbit_per_sec(10);
        let t = link.time_for(DataSize::gb(1));
        assert!((t.as_secs_f64() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_takes_zero_time_even_on_zero_bandwidth() {
        assert_eq!(Bandwidth::ZERO.time_for(DataSize::ZERO), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn zero_bandwidth_transfer_panics() {
        let _ = Bandwidth::ZERO.time_for(DataSize::from_bytes(1));
    }

    #[test]
    fn terabyte_transfers_do_not_overflow() {
        let link = Bandwidth::mb_per_sec(100);
        let t = link.time_for(DataSize::tb(40)); // the paper's 40 TB restart case
        assert!((t.as_secs_f64() - 400_000.0).abs() < 1.0);
    }

    #[test]
    fn u64_and_u128_paths_agree_around_the_overflow_edge() {
        let edge = u64::MAX / crate::time::NANOS_PER_SEC;
        let rates = [
            Bandwidth::mb_per_sec(1),
            Bandwidth::mb_per_sec(120),
            Bandwidth::gbit_per_sec(10),
            Bandwidth::from_bytes_per_sec(999_983),
        ];
        for bytes in [edge - 1, edge, edge + 1, DataSize::tb(1_000).as_bytes()] {
            for bw in rates {
                let exact = bytes as u128 * 1_000_000_000 / bw.as_bytes_per_sec() as u128;
                let got = bw.time_for(DataSize::from_bytes(bytes)).as_nanos();
                assert_eq!(got as u128, exact, "{bytes} bytes at {bw}");
            }
        }
    }

    #[test]
    fn achieved_rate_inverts_time_for() {
        let link = Bandwidth::mb_per_sec(575);
        let bytes = DataSize::gb(100);
        let t = link.time_for(bytes);
        let back = achieved_rate(bytes, t);
        let err = (back.as_mb_per_sec_f64() - 575.0).abs() / 575.0;
        assert!(err < 1e-6, "relative error {err}");
    }

    #[test]
    fn display_units() {
        assert_eq!(DataSize::gb(32).to_string(), "32.00GB");
        assert_eq!(DataSize::from_bytes(999).to_string(), "999B");
        assert_eq!(Bandwidth::mb_per_sec(120).to_string(), "120.00MB/s");
    }

    #[test]
    fn scaled_derates() {
        let trunk = Bandwidth::gbit_per_sec(20);
        let achievable = trunk.scaled(0.75);
        assert_eq!(achievable.as_bytes_per_sec(), 20 * GB / 8 * 3 / 4);
        assert_eq!(trunk.scaled(-1.0), Bandwidth::ZERO);
    }
}
