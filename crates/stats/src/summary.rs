//! Summary statistics: online moments.
//!
//! The trace-driven experiments (Sec. 8) report, for every measurement bin,
//! the ranking metric averaged over 30 sampling runs together with its
//! standard deviation (the error bars of Figs. 12–16). [`RunningStats`] is
//! the Welford accumulator behind those numbers.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (n−1 denominator); `None` with < 2 samples.
    pub(crate) fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {a} ≈ {b}");
    }

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        assert!(s.mean().is_none());
        assert!(s.variance().is_none());
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_close(s.mean().unwrap(), 5.0, 1e-12);
        assert_close(s.variance().unwrap(), 4.571428571428571, 1e-12);
        assert_close(s.std_dev().unwrap(), 4.571428571428571f64.sqrt(), 1e-12);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_single_value() {
        let mut s = RunningStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), Some(3.0));
        assert!(s.variance().is_none());
    }
}
