//! Simulated instants and durations.
//!
//! Both types are thin wrappers around a nanosecond count. Nanosecond
//! resolution over a `u64` covers ~584 years of simulated time, far beyond
//! any campaign we model (the paper's longest observation window is 18
//! operation days).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A point in simulated time, measured in nanoseconds since the simulation
/// epoch (`SimInstant::EPOCH`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimInstant(u64);

/// A span of simulated time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimInstant {
    /// The start of simulated time.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Construct from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimInstant(secs * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since an earlier instant. Saturates at zero if `earlier`
    /// is actually later, which keeps reporting code robust against
    /// out-of-order stamps from concurrent workers.
    pub fn saturating_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimInstant) -> SimInstant {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite input clamps to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 86_400.0 {
            write!(f, "{:.2}d", secs / 86_400.0)
        } else if secs >= 3_600.0 {
            write!(f, "{:.2}h", secs / 3_600.0)
        } else if secs >= 60.0 {
            write!(f, "{:.2}min", secs / 60.0)
        } else if secs >= 1.0 {
            write!(f, "{:.3}s", secs)
        } else if secs >= 1e-3 {
            write!(f, "{:.3}ms", secs * 1e3)
        } else if secs >= 1e-6 {
            write!(f, "{:.3}us", secs * 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let t = SimInstant::from_secs(10);
        let d = SimDuration::from_millis(2_500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn instant_subtraction_saturates() {
        let early = SimInstant::from_secs(1);
        let late = SimInstant::from_secs(5);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn duration_from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn duration_display_picks_sensible_units() {
        assert_eq!(SimDuration::from_secs(90).to_string(), "1.50min");
        assert_eq!(SimDuration::from_secs(2 * 86_400).to_string(), "2.00d");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.000ms");
        assert_eq!(SimDuration::from_nanos(42).to_string(), "42ns");
    }

    #[test]
    fn min_max_behave() {
        let a = SimInstant::from_secs(3);
        let b = SimInstant::from_secs(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(3);
        let y = SimDuration::from_secs(7);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}
