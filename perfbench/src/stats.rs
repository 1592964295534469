//! Sample sets and the percentile rule every printed timing follows.
//!
//! A percentile is printed only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure never rests on a handful of observations.
//! A failed or refused operation enters its latency sample as `+∞`: it
//! misses every latency limit, and a percentile that lands on it reads as
//! infinite instead of silently improving.

/// Samples that must lie strictly beyond a printed percentile.
pub const MIN_BEYOND: usize = 10;

/// An unordered set of observations (latencies, sizes, counts).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Records a failed operation: it misses every latency limit.
    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of the observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The observations in recording order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile: element `⌈q·n⌉` (1-based) of the sorted
    /// sample.
    ///
    /// # Errors
    ///
    /// When fewer than [`MIN_BEYOND`] samples lie beyond that rank — the
    /// sample is too small to print this percentile.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).max(1);
        if n < rank + MIN_BEYOND {
            return Err(format!(
                "p{} needs {} samples beyond it, {n} samples leave {}",
                q * 100.0,
                MIN_BEYOND,
                n.saturating_sub(rank)
            ));
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(sorted[rank - 1])
    }

    /// The median, under the same rule as [`Samples::percentile`].
    ///
    /// # Errors
    ///
    /// See [`Samples::percentile`].
    pub fn median(&self) -> Result<f64, String> {
        self.percentile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample size whose `q`-percentile the rule accepts.
    fn samples_needed(q: f64) -> usize {
        (1..)
            .find(|&n| {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                n >= rank + MIN_BEYOND
            })
            .expect("some sample size always suffices")
    }

    fn of(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let s = of((1..=100).map(f64::from));
        assert_eq!(s.percentile(0.5), Ok(50.0));
        assert_eq!(s.percentile(0.9), Ok(90.0));
        // p99 of 100 samples has one sample beyond it: refused.
        assert!(s.percentile(0.99).is_err());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
        for q in [0.5, 0.9, 0.99] {
            let n = samples_needed(q);
            assert!(of((0..n).map(|i| i as f64)).percentile(q).is_ok());
            assert!(of((0..n - 1).map(|i| i as f64)).percentile(q).is_err());
        }
    }

    #[test]
    fn order_of_recording_does_not_matter() {
        let up = of((0..40).map(f64::from));
        let down = of((0..40).rev().map(f64::from));
        assert_eq!(up.median(), down.median());
    }

    #[test]
    fn failed_operations_miss_every_limit() {
        // 100 sessions, 15 of them refused: p90 lands on a refusal, p50
        // does not move.
        let mut s = of((1..=85).map(f64::from));
        for _ in 0..15 {
            s.push_failed();
        }
        assert_eq!(s.median(), Ok(50.0));
        assert_eq!(s.percentile(0.9), Ok(f64::INFINITY));
    }
}
