//! Integer simulation time.
//!
//! All simulated time is measured in whole nanoseconds. FlexRay quantities
//! used throughout the workspace are exact in this base: one macrotick is
//! 1 µs = 1000 ns and one bit at 10 Mbit/s lasts 100 ns.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// simulation origin.
///
/// `SimTime` is ordered, hashable and cheap to copy. Arithmetic with
/// [`SimDuration`] is checked in debug builds (overflow panics) and
/// saturating behaviour is available through [`SimTime::saturating_add`].
///
/// ```
/// use event_sim::{SimTime, SimDuration};
/// let t = SimTime::from_micros(5) + SimDuration::from_nanos(500);
/// assert_eq!(t.as_nanos(), 5_500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use event_sim::SimDuration;
/// assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the origin.
    ///
    /// # Panics
    /// Panics if the value overflows `u64` nanoseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    ///
    /// # Panics
    /// Panics if the value overflows `u64` nanoseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the origin.
    ///
    /// # Panics
    /// Panics if the value overflows `u64` nanoseconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Whole nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the origin (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the origin as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is after self"),
        )
    }

    /// The duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, clamping at [`SimTime::MAX`] instead of overflowing.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Checked subtraction; `None` if `d` is larger than `self`.
    pub fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// A duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// A duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// A duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor; `None` on overflow.
    pub fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        self.0.checked_mul(factor).map(SimDuration)
    }

    /// How many whole copies of `other` fit in `self`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn div_duration(self, other: SimDuration) -> u64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 / other.0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
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

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Rem<SimDuration> for SimTime {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ns(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}ns)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_ns(self.0, f)
    }
}

/// Human-readable formatting with an adaptive unit.
fn format_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns == 0 {
        write!(f, "0ns")
    } else if ns.is_multiple_of(1_000_000_000) {
        write!(f, "{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        write!(f, "{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        write!(f, "{}us", ns / 1_000)
    } else {
        write!(f, "{}ns", ns)
    }
}

impl From<SimDuration> for SimTime {
    fn from(d: SimDuration) -> SimTime {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_micros(1).saturating_sub(SimDuration::from_micros(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "earlier is after self")]
    fn duration_since_panics_when_reversed() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_nanos(1));
    }

    #[test]
    fn division_and_remainder() {
        let cycle = SimDuration::from_millis(5);
        let t = SimTime::from_micros(12_300);
        assert_eq!(t % cycle, SimDuration::from_micros(2_300));
        assert_eq!(SimDuration::from_millis(12).div_duration(cycle), 2);
    }

    #[test]
    fn display_uses_adaptive_units() {
        assert_eq!(SimTime::from_millis(5).to_string(), "5ms");
        assert_eq!(SimTime::from_micros(40).to_string(), "40us");
        assert_eq!(SimDuration::from_nanos(123).to_string(), "123ns");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2s");
        assert_eq!(SimTime::ZERO.to_string(), "0ns");
    }

    #[test]
    fn checked_ops() {
        assert_eq!(SimTime::ZERO.checked_sub(SimDuration::from_nanos(1)), None);
        assert_eq!(SimDuration::MAX.checked_mul(2), None);
        assert_eq!(
            SimDuration::from_micros(2).checked_mul(3),
            Some(SimDuration::from_micros(6))
        );
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_micros(1);
        let b = SimDuration::from_micros(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
