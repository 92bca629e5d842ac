//! Streaming summary statistics over simulated durations.

use event_sim::SimDuration;

/// Online count/min/max/total accumulator over [`SimDuration`] samples;
/// the mean is the exact total over the count.
///
/// ```
/// use metrics::Summary;
/// use event_sim::SimDuration;
/// let mut s = Summary::new();
/// for us in [1u64, 2, 3, 4] {
///     s.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.min().unwrap().as_micros(), 1);
/// assert_eq!(s.max().unwrap().as_micros(), 4);
/// assert_eq!(s.mean().unwrap().as_nanos(), 2_500);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    count: u64,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
    total_ns: u128,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.count += 1;
        self.total_ns += u128::from(sample.as_nanos());
        self.min = Some(match self.min {
            Some(m) => m.min(sample),
            None => sample,
        });
        self.max = Some(match self.max {
            Some(m) => m.max(sample),
            None => sample,
        });
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<SimDuration> {
        self.max
    }

    /// Sum of all samples in nanoseconds (exact, 128-bit).
    pub fn total_nanos(&self) -> u128 {
        self.total_ns
    }

    /// Arithmetic mean, if any samples were recorded (rounded to whole
    /// nanoseconds).
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            None
        } else {
            Some(SimDuration::from_nanos(
                (self.total_ns / u128::from(self.count)) as u64,
            ))
        }
    }

    /// Mean in milliseconds as a float, `0.0` if empty (for table output).
    pub fn mean_millis_f64(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_summary_has_no_stats() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.mean().is_none());
        assert_eq!(s.mean_millis_f64(), 0.0);
    }

    #[test]
    fn mean_and_extremes() {
        let mut s = Summary::new();
        for v in [5, 1, 9, 5] {
            s.record(us(v));
        }
        assert_eq!(s.min(), Some(us(1)));
        assert_eq!(s.max(), Some(us(9)));
        assert_eq!(s.mean(), Some(us(5)));
        assert_eq!(s.total_nanos(), 20_000);
    }

    #[test]
    fn mean_millis_reporting() {
        let mut s = Summary::new();
        s.record(SimDuration::from_millis(3));
        s.record(SimDuration::from_millis(5));
        assert!((s.mean_millis_f64() - 4.0).abs() < 1e-12);
    }
}
