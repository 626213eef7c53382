//! Quantiles from the benchmark's own raw samples.
//!
//! Every timing the benchmark reports is computed here from the samples it
//! recorded itself, never from `imcat-obs` histograms: those round every
//! quantile up to a power of two, which would hide any change smaller than
//! a factor of two.

use std::time::Duration;

/// Percentiles a summary may name as its tail, lowest first.
const TAIL_LADDER: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of ascending `sorted` samples: the smallest sample
/// with at least a `q` share of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// Index the nearest-rank `q` quantile takes in `n` ascending samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` (which rounds to 990.0000000000001)
    // at rank 990 instead of 991.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 is not supported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&p| n > 0 && beyond(n, p / 100.0) >= MIN_BEYOND)
}

/// Median of unsorted values (the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Median of `values`, or `empty` when there are none.
pub fn median_or(values: &[f64], empty: f64) -> f64 {
    if values.is_empty() {
        empty
    } else {
        median(values)
    }
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Fewest samples a window needs to count in [`windowed_p99`].
pub const MIN_WINDOW_SAMPLES: usize = 20;

/// The median, over consecutive `window`-second windows, of each window's
/// p99, with the number of windows. `times` are the samples' completion
/// times in seconds; windows with fewer than [`MIN_WINDOW_SAMPLES`] samples
/// are left out. A stall of the machine spoils the p99 of the window it
/// falls in, not the whole phase's.
pub fn windowed_p99(times: &[f64], values: &[f64], window: f64) -> Option<(f64, usize)> {
    assert_eq!(times.len(), values.len(), "one time per sample");
    let mut buckets: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (&t, &v) in times.iter().zip(values) {
        buckets.entry((t / window).floor() as u64).or_default().push(v);
    }
    let p99s: Vec<f64> = buckets
        .into_values()
        .filter(|b| b.len() >= MIN_WINDOW_SAMPLES)
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            quantile(&b, 0.99)
        })
        .collect();
    (!p99s.is_empty()).then(|| (median(&p99s), p99s.len()))
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// The highest supported tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes raw samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = tail_percentile(v.len()).map(|p| (p, quantile(&v, p / 100.0)));
        Some(Self {
            n: v.len(),
            p50: quantile(&v, 0.5),
            p90: quantile(&v, 0.9),
            p99: quantile(&v, 0.99),
            tail,
        })
    }

    /// `p50 … p99 … (tail) over n samples`, for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.1} {unit}"),
            None => "no supported tail".into(),
        };
        format!(
            "p50 {:.1} {unit}, p99 {:.1} {unit} ({} beyond), {tail}, n={}",
            self.p50,
            self.p99,
            beyond(self.n, 0.99),
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Odd count: the true middle; even count: the lower middle.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_or(&[5.0], 0.0), 5.0);
        assert_eq!(median_or(&[], 0.0), 0.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(beyond(1, 0.99), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
    }

    #[test]
    fn windowed_p99_confines_a_stall_to_its_window() {
        // Three 1 s windows of 100 samples; the middle one holds a stall.
        let times: Vec<f64> = (0..300).map(|i| i as f64 / 100.0).collect();
        let values: Vec<f64> = (0..300)
            .map(|i| if (100..110).contains(&i) { 1e6 } else { (i % 100) as f64 })
            .collect();
        assert_eq!(windowed_p99(&times, &values, 1.0), Some((98.0, 3)));
        // The pooled p99 is the stall's.
        let mut pooled = values.clone();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(quantile(&pooled, 0.99), 1e6);
        // Windows too small to hold a p99 are left out.
        assert_eq!(windowed_p99(&times[..19], &values[..19], 1.0), None);
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let v: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 999.0);
        assert_eq!(s.p90, 1799.0);
        assert_eq!(s.p99, 1979.0);
        assert_eq!(s.tail, Some((99.0, 1979.0)));
        assert!(Summary::of(&[]).is_none());
    }
}
