//! Streaming summary statistics over simulated durations.

use event_sim::SimDuration;

/// Online min/max/mean/variance accumulator (Welford's algorithm) over
/// [`SimDuration`] samples.
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
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
    mean_ns: f64,
    m2_ns: f64,
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
        let x = sample.as_nanos() as f64;
        let delta = x - self.mean_ns;
        self.mean_ns += delta / self.count as f64;
        self.m2_ns += delta * (x - self.mean_ns);
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean_ns - self.mean_ns;
        let total = n1 + n2;
        self.mean_ns += delta * n2 / total;
        self.m2_ns += other.m2_ns + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
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

    /// Sample standard deviation in nanoseconds; `None` with fewer than two
    /// samples.
    pub fn std_dev_nanos(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some((self.m2_ns / (self.count - 1) as f64).sqrt())
        }
    }
}

/// Equal when every field is: the counts, extremes and exact total, and
/// Welford's running mean and sum of squares bit for bit
/// ([`f64::to_bits`]). The floats depend on the order the samples were
/// recorded in, so two summaries of the same samples in another order
/// may differ.
impl PartialEq for Summary {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.min == other.min
            && self.max == other.max
            && self.total_ns == other.total_ns
            && self.mean_ns.to_bits() == other.mean_ns.to_bits()
            && self.m2_ns.to_bits() == other.m2_ns.to_bits()
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
        assert!(s.std_dev_nanos().is_none());
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
    fn std_dev_matches_closed_form() {
        let mut s = Summary::new();
        for v in [2, 4, 4, 4, 5, 5, 7, 9] {
            s.record(us(v));
        }
        // Sample variance of this classic set is 32/7 us^2.
        let expected = (32.0f64 / 7.0).sqrt() * 1e3; // in ns
        let got = s.std_dev_nanos().unwrap();
        assert!(
            (got - expected).abs() < 1e-6 * expected,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn merge_equals_sequential() {
        let mut all = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        for (i, v) in [3u64, 1, 4, 1, 5, 9, 2, 6].iter().enumerate() {
            all.record(us(*v));
            if i < 4 {
                left.record(us(*v));
            } else {
                right.record(us(*v));
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
        assert_eq!(left.mean(), all.mean());
        let (a, b) = (left.std_dev_nanos().unwrap(), all.std_dev_nanos().unwrap());
        assert!((a - b).abs() < 1e-9 * b.max(1.0));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::new();
        s.record(us(7));
        let snapshot = format!("{s:?}");
        s.merge(&Summary::new());
        assert_eq!(format!("{s:?}"), snapshot);

        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), Some(us(7)));
    }

    #[test]
    fn mean_millis_reporting() {
        let mut s = Summary::new();
        s.record(SimDuration::from_millis(3));
        s.record(SimDuration::from_millis(5));
        assert!((s.mean_millis_f64() - 4.0).abs() < 1e-12);
    }
}
