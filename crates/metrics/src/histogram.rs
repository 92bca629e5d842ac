//! Mergeable log-scale histograms.

/// A mergeable log-scale histogram over `u64` values.
///
/// Buckets cover the whole `u64` range with bounded relative error: each
/// power-of-two octave is split into `2^sub_bits` linear sub-buckets, so
/// a bucket's width is at most `2^-sub_bits` of its value (3.2% at the
/// default `sub_bits = 5`). Memory is fixed at construction —
/// `(65 - sub_bits) · 2^sub_bits` counters, ~15 KiB at the default —
/// independent of how many samples are recorded, which is what makes
/// streaming fleet aggregation O(workers × buckets) instead of
/// O(vehicles).
///
/// [`merge`](Self::merge) is bucket-wise `u64` addition: commutative and
/// associative, so partial histograms from any shard partition, merged in
/// any order, produce bit-identical totals (the fleet digest depends on
/// this).
///
/// ```
/// use metrics::LogHistogram;
/// let mut h = LogHistogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p99 = h.quantile_upper_bound(0.99).unwrap();
/// assert!((990..=1023).contains(&p99), "{p99}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    sub_bits: u32,
    bins: Vec<u64>,
    count: u64,
}

impl Default for LogHistogram {
    /// The default geometry: 32 sub-buckets per octave (≤ 3.2% relative
    /// quantile error).
    fn default() -> Self {
        LogHistogram::new(5)
    }
}

impl LogHistogram {
    /// Creates a histogram with `2^sub_bits` linear sub-buckets per
    /// power-of-two octave.
    ///
    /// # Panics
    /// Panics unless `1 <= sub_bits <= 8`.
    pub fn new(sub_bits: u32) -> Self {
        assert!(
            (1..=8).contains(&sub_bits),
            "sub_bits must be in 1..=8, got {sub_bits}"
        );
        let buckets = (65 - sub_bits as usize) << sub_bits;
        LogHistogram {
            sub_bits,
            bins: vec![0; buckets],
            count: 0,
        }
    }

    /// The bucket index of `value`.
    fn index_of(&self, value: u64) -> usize {
        let sub = 1u64 << self.sub_bits;
        if value < sub {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - self.sub_bits;
        let block = u64::from(shift + 1);
        ((block << self.sub_bits) + ((value >> shift) & (sub - 1))) as usize
    }

    /// The largest value that lands in bucket `idx` (the inclusive upper
    /// bound a quantile reports).
    fn upper_bound_of(&self, idx: usize) -> u64 {
        let sub = 1u64 << self.sub_bits;
        let idx = idx as u64;
        if idx < sub {
            return idx;
        }
        let block = idx >> self.sub_bits;
        let pos = idx & (sub - 1);
        let shift = (block - 1) as u32;
        // Upper edge is ((sub + pos + 1) << shift); the largest member is
        // one below it. Saturate for the topmost bucket.
        match (sub + pos + 1).checked_shl(shift) {
            Some(edge) if edge != 0 => edge - 1,
            _ => u64::MAX,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Adds `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        let idx = self.index_of(value);
        self.bins[idx] += n;
        self.count += n;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sub-bucket resolution exponent this histogram was built with.
    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// An inclusive upper bound on the `q`-quantile (0.0 ..= 1.0): the
    /// largest value of the bucket in which the quantile falls, `None`
    /// when the histogram is empty. Within `2^-sub_bits` of the exact
    /// order statistic.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let idx = self.bins.iter().position(|&c| {
            seen += c;
            seen >= target
        })?;
        Some(self.upper_bound_of(idx))
    }

    /// Merges another histogram with the same geometry into this one.
    /// Commutative and associative (see the type docs).
    ///
    /// # Panics
    /// Panics if the sub-bucket resolution differs.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "sub_bits mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Resets every counter to zero without releasing the bucket storage
    /// (a sharded worker reuses one histogram across shards).
    pub fn clear(&mut self) {
        self.bins.fill(0);
        self.count = 0;
    }

    /// Iterates over the `(bucket_index, count)` pairs of non-empty
    /// buckets — the deterministic serialization a digest folds over.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }

    /// Heap + inline bytes this histogram occupies — the O(buckets) term
    /// of the fleet-aggregation memory contract.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bins.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log_small_values_are_exact() {
        // Below 2^sub_bits every value owns its own bucket, so the
        // quantile upper bound is the exact order statistic.
        let mut h = LogHistogram::new(5);
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(0.0), Some(0));
        assert_eq!(h.quantile_upper_bound(1.0), Some(31));
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn log_index_and_upper_bound_are_consistent() {
        // Every probe value must land in a bucket whose inclusive upper
        // bound is >= the value and within the relative-error contract.
        let mut probes = vec![0u64, 1, 2, 31, 32, 33, 1000, 123_456_789];
        probes.extend((0..64).map(|s| 1u64 << s));
        probes.push(u64::MAX);
        for sub_bits in [1u32, 4, 5, 8] {
            let h = LogHistogram::new(sub_bits);
            for &v in &probes {
                let idx = h.index_of(v);
                assert!(idx < h.bins.len(), "v={v} idx={idx}");
                let ub = h.upper_bound_of(idx);
                assert!(ub >= v, "v={v} ub={ub}");
                // Bucket width <= 2^-sub_bits of the value (plus 1 for
                // the integer edges).
                let width = ub - v;
                assert!(
                    (width as u128) <= ((v as u128) >> sub_bits) + 1,
                    "v={v} ub={ub} sub_bits={sub_bits}"
                );
            }
        }
    }

    #[test]
    fn log_buckets_are_monotone() {
        // Index is monotone in the value, and consecutive buckets tile
        // the range: upper_bound(idx) + 1 is the first value of idx + 1.
        let h = LogHistogram::new(2);
        let mut last = 0usize;
        for v in 0..4096u64 {
            let idx = h.index_of(v);
            assert!(idx >= last, "index not monotone at {v}");
            if idx > last {
                assert_eq!(idx, last + 1, "skipped a bucket at {v}");
                assert_eq!(h.upper_bound_of(last), v - 1);
            }
            last = idx;
        }
    }

    #[test]
    fn log_full_range_has_no_overflow() {
        let mut h = LogHistogram::default();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
        assert_eq!(h.quantile_upper_bound(0.0), Some(0));
    }

    #[test]
    fn log_quantiles_match_exact_within_relative_error() {
        let mut h = LogHistogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.99, 9_900), (0.999, 9_990)] {
            let got = h.quantile_upper_bound(q).unwrap();
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            assert!(
                (got - exact) as f64 <= exact as f64 / 32.0 + 1.0,
                "q={q}: {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn log_record_n_equals_repeated_record() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        for _ in 0..7 {
            a.record(1234);
        }
        b.record_n(1234, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn log_clear_keeps_geometry() {
        let mut h = LogHistogram::default();
        h.record(42);
        let buckets = h.bins.len();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.bins.len(), buckets);
        assert_eq!(h.quantile_upper_bound(0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn log_quantile_above_one_rejected() {
        let _ = LogHistogram::default().quantile_upper_bound(1.5);
    }

    #[test]
    #[should_panic(expected = "sub_bits mismatch")]
    fn log_merge_rejects_different_resolution() {
        let mut a = LogHistogram::new(4);
        let b = LogHistogram::new(5);
        a.merge(&b);
    }

    #[test]
    fn log_footprint_is_fixed() {
        let mut h = LogHistogram::default();
        let before = h.footprint_bytes();
        for v in 0..100_000u64 {
            h.record(v.wrapping_mul(0x9E37_79B9));
        }
        assert_eq!(h.footprint_bytes(), before, "recording must not grow");
        assert!(before >= h.bins.len() * 8);
    }

    #[test]
    fn log_iter_nonzero_reports_every_sample() {
        let mut h = LogHistogram::default();
        h.record(3);
        h.record_n(1_000_000, 4);
        let pairs: Vec<_> = h.iter_nonzero().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs.iter().map(|&(_, c)| c).sum::<u64>(), 5);
    }

    proptest! {
        #[test]
        fn log_merge_is_commutative(
            xs in proptest::collection::vec(0u64..=u64::MAX, 0..50),
            ys in proptest::collection::vec(0u64..=u64::MAX, 0..50),
        ) {
            let mut a = LogHistogram::default();
            let mut b = LogHistogram::default();
            for &v in &xs { a.record(v); }
            for &v in &ys { b.record(v); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn log_merge_is_associative(
            xs in proptest::collection::vec(0u64..=u64::MAX, 0..40),
            ys in proptest::collection::vec(0u64..=u64::MAX, 0..40),
            zs in proptest::collection::vec(0u64..=u64::MAX, 0..40),
        ) {
            let build = |vals: &[u64]| {
                let mut h = LogHistogram::default();
                for &v in vals { h.record(v); }
                h
            };
            let (a, b, c) = (build(&xs), build(&ys), build(&zs));
            // (a + b) + c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a + (b + c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn log_merge_equals_recording_everything_in_one(
            xs in proptest::collection::vec(0u64..=u64::MAX, 0..60),
            split in 0usize..60,
        ) {
            let split = split.min(xs.len());
            let mut whole = LogHistogram::default();
            for &v in &xs { whole.record(v); }
            let mut left = LogHistogram::default();
            let mut right = LogHistogram::default();
            for &v in &xs[..split] { left.record(v); }
            for &v in &xs[split..] { right.record(v); }
            left.merge(&right);
            prop_assert_eq!(whole, left);
        }

        #[test]
        fn log_quantile_bounds_any_value_distribution(
            xs in proptest::collection::vec(0u64..1u64 << 40, 1..80),
            q_millis in 0u64..=1000,
        ) {
            let q = q_millis as f64 / 1000.0;
            let mut h = LogHistogram::default();
            for &v in &xs { h.record(v); }
            let mut xs = xs;
            xs.sort_unstable();
            let rank = ((q * xs.len() as f64).ceil().max(1.0) as usize).min(xs.len()) - 1;
            let exact = xs[rank];
            let got = h.quantile_upper_bound(q).unwrap();
            prop_assert!(got >= exact, "{got} < exact {exact}");
            prop_assert!(
                (got - exact) as f64 <= exact as f64 / 32.0 + 1.0,
                "{got} too far above exact {exact}"
            );
        }
    }
}
