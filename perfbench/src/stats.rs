//! Order statistics over host-time samples.

/// The median of `values` (the mean of the two middle values for an even
/// count).
///
/// # Panics
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The nearest-rank `pct`-th percentile of `values`.
///
/// # Panics
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let sorted = sorted(values);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie beyond their nearest-rank `pct`-th
/// percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).min(n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile_and_its_tail() {
        let values: Vec<f64> = (1..=108).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), 98.0);
        assert_eq!(beyond(values.len(), 90.0), 10);
        assert_eq!(percentile(&values, 100.0), 108.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
    }
}
