//! Virtual time for the discrete-event simulation and telemetry timestamps.
//!
//! The simulator runs on a virtual clock so experiments are deterministic and
//! independent of host scheduling. Telemetry entries carry [`Timestamp`]s with
//! microsecond resolution — fine enough to resolve the sub-millisecond
//! inter-arrival gaps that distinguish a flood from normal signaling.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

/// A span of virtual time in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Timestamp {
    /// The simulation epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    /// Microseconds in this span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in this span (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds in this span as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_since`] when order is uncertain.
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        let t2 = t + Duration::from_secs(1);
        assert_eq!(t2 - t, Duration::from_secs(1));
        assert_eq!(t.saturating_since(t2), Duration::ZERO);
    }

    #[test]
    fn conversions() {
        let d = Duration::from_secs(2);
        assert_eq!(d.as_millis(), 2_000);
        assert_eq!(d.as_micros(), 2_000_000);
        assert!((d.as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Duration::from_micros(250).to_string(), "250us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(3).to_string(), "3.000s");
        assert_eq!(Timestamp(1_500_000).to_string(), "1.500000s");
    }

    #[test]
    fn saturating_mul_caps_at_max() {
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
        assert_eq!(Duration::from_millis(2).saturating_mul(3), Duration::from_millis(6));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Timestamp(1) < Timestamp(2));
        let mut v = vec![Timestamp(30), Timestamp(10), Timestamp(20)];
        v.sort();
        assert_eq!(v, vec![Timestamp(10), Timestamp(20), Timestamp(30)]);
    }
}
