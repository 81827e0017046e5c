//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank: the p-th percentile of `n` sorted
//! samples is the one at rank `ceil(p·n/100)`, computed in integers so
//! that no rounding can move a rank. A failed request missed every
//! latency limit, so it sorts after every success.

/// The nearest-rank `pct`-th percentile of ascending `sorted`; `None`
/// when empty.
///
/// # Panics
///
/// Panics unless `1 <= pct <= 100`.
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    let rank = (pct * sorted.len()).div_ceil(100);
    (rank > 0).then(|| sorted[rank - 1])
}

/// How many of `n` samples lie beyond the `pct`-th percentile's rank:
/// the support of that tail estimate.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - (pct * n).div_ceil(100)
}

/// The nearest-rank `pct`-th percentile of unsorted `values`; 0 for none.
pub fn percentile_of(values: &[f64], pct: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, pct).unwrap_or(0.0)
}

/// The median (the mean of the middle two for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[mid],
        _ => (sorted[mid - 1] + sorted[mid]) / 2.0,
    }
}

/// The arithmetic mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One phase's latency samples; failed requests count as misses.
#[derive(Debug, Default)]
pub struct Latencies {
    ok: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn record(&mut self, value: f64) {
        self.ok.push(value);
    }

    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Latencies) {
        self.ok.extend(other.ok);
        self.failed += other.failed;
    }

    pub fn count(&self) -> usize {
        self.ok.len() + self.failed
    }

    /// The `pct`-th percentile with failures sorted last (`+inf` when the
    /// rank lands on one); 0 without samples.
    pub fn percentile(&self, pct: usize) -> f64 {
        let mut all = self.ok.clone();
        all.sort_by(f64::total_cmp);
        all.resize(self.count(), f64::INFINITY);
        percentile(&all, pct).unwrap_or(0.0)
    }

    /// p50, p90 and p99 with the sample count behind them, for the log.
    pub fn describe(&self, unit: &str) -> String {
        let n = self.count();
        format!(
            "p50 {:.1} {unit}, p90 {:.1} {unit}, p99 {:.1} {unit} over {n} samples \
             ({} beyond p99, {} failed)",
            self.percentile(50),
            self.percentile(90),
            self.percentile(99),
            beyond(n, 99),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(5.0));
        assert_eq!(percentile(&xs, 90), Some(9.0));
        assert_eq!(percentile(&xs, 91), Some(10.0));
        assert_eq!(percentile(&xs, 100), Some(10.0));
        assert_eq!(percentile(&[7.0], 1), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
        // 1000 samples: p99 is rank 990, with ten samples beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99), Some(990.0));
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50), 2.0);
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut lat = Latencies::default();
        for v in 1..=9 {
            lat.record(f64::from(v));
        }
        lat.fail();
        assert_eq!(lat.count(), 10);
        assert_eq!(lat.percentile(90), 9.0);
        assert_eq!(lat.percentile(91), f64::INFINITY);
        assert_eq!(Latencies::default().percentile(50), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
