//! Order statistics over raw per-operation samples.
//!
//! Percentiles are taken from the sorted samples themselves (nearest rank),
//! never from log-bucketed histograms, so a reported p95 is a latency some
//! operation actually had.

/// Raw latency samples of one operation type, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, secs: f64) {
        self.values.push(secs);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile (`p` in `0..=1`) of the samples.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }

    /// Samples strictly beyond the nearest-rank position of `p`: how many
    /// observations the reported percentile rests on from above.
    pub fn beyond(&self, p: f64) -> usize {
        self.values.len().saturating_sub(rank(self.values.len(), p))
    }

    /// The tail percentile to report: p99 when at least [`MIN_BEYOND`]
    /// samples lie beyond it, else p95.
    pub fn tail(&self) -> f64 {
        if self.beyond(0.99) >= MIN_BEYOND {
            0.99
        } else {
            0.95
        }
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside 0..=1");
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (`p` in `0..=1`): the smallest
/// sample such that at least a share `p` of all samples are at or below it.
/// Returns NaN for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `values` (nearest rank; the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 0.8), 4.0);
    }

    #[test]
    fn samples_beyond_p95() {
        let mut s = Samples::new();
        for i in 0..200 {
            s.push(f64::from(i));
        }
        assert_eq!(s.len(), 200);
        assert_eq!(s.beyond(0.95), 10);
        assert_eq!(s.percentile(0.95), 189.0);
        let mut t = Samples::new();
        t.push(1000.0);
        s.extend(&t);
        assert_eq!(s.beyond(0.95), 10);
        assert_eq!(s.sum(), (0..200).sum::<i32>() as f64 + 1000.0);
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let mut s = Samples::new();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert_eq!((s.tail(), s.beyond(0.99)), (0.95, 9));
        s.push(999.0);
        assert_eq!((s.tail(), s.beyond(0.99)), (0.99, 10));
        assert_eq!(s.percentile(s.tail()), 989.0);
        assert_eq!(Samples::new().beyond(0.99), 0);
        assert_eq!(Samples::new().tail(), 0.95);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
