//! Flow-arrival processes.
//!
//! The paper reports average flow arrival rates on the monitored Sprint link
//! (2360 flows/s for 5-tuple flows). The synthetic generators model flow
//! arrivals as a homogeneous Poisson process with that rate; a deterministic
//! (evenly spaced) process is also provided for tests and ablations.

use flowrank_stats::dist::{ContinuousDistribution, Exponential};
use flowrank_stats::rng::Rng;

/// A process producing a monotonically increasing sequence of arrival times.
pub(crate) trait ArrivalProcess {
    /// Returns the next arrival time in seconds, given the previous one.
    fn next_arrival(&mut self, previous: f64, rng: &mut dyn Rng) -> f64;

    /// Generates every arrival time in `[0, horizon)` seconds.
    fn arrivals_until(&mut self, horizon: f64, rng: &mut dyn Rng) -> Vec<f64>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        let mut t = self.next_arrival(0.0, rng);
        while t < horizon {
            out.push(t);
            t = self.next_arrival(t, rng);
        }
        out
    }
}

/// Homogeneous Poisson arrivals with a given rate (arrivals per second).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoissonArrivals {
    inter_arrival: Exponential,
}

impl PoissonArrivals {
    /// Creates a Poisson arrival process with `rate` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive (a configuration error in
    /// the experiment definition, not a data-dependent condition).
    pub(crate) fn new(rate: f64) -> Self {
        PoissonArrivals {
            inter_arrival: Exponential::new(rate).expect("arrival rate must be positive"),
        }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_arrival(&mut self, previous: f64, rng: &mut dyn Rng) -> f64 {
        previous + self.inter_arrival.sample(rng)
    }
}

/// Deterministic, evenly spaced arrivals (one every `1/rate` seconds).
#[derive(Debug, Clone, Copy)]
pub struct DeterministicArrivals {
    interval: f64,
}

impl DeterministicArrivals {
    /// Creates a deterministic arrival process with `rate` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        DeterministicArrivals {
            interval: 1.0 / rate,
        }
    }
}

impl ArrivalProcess for DeterministicArrivals {
    fn next_arrival(&mut self, previous: f64, _rng: &mut dyn Rng) -> f64 {
        previous + self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn poisson_arrival_count_matches_rate() {
        let mut process = PoissonArrivals::new(100.0);
        let mut rng = Pcg64::seed_from_u64(42);
        let arrivals = process.arrivals_until(50.0, &mut rng);
        // Expect ~5000 arrivals; Poisson std dev ≈ 70.
        let n = arrivals.len() as f64;
        assert!((n - 5000.0).abs() < 350.0, "got {n} arrivals");
        // Strictly increasing.
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(arrivals.iter().all(|&t| t < 50.0));
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let mut a = PoissonArrivals::new(10.0);
        let mut b = PoissonArrivals::new(10.0);
        let mut ra = Pcg64::seed_from_u64(7);
        let mut rb = Pcg64::seed_from_u64(7);
        assert_eq!(
            a.arrivals_until(10.0, &mut ra),
            b.arrivals_until(10.0, &mut rb)
        );
    }

    #[test]
    fn deterministic_arrivals_evenly_spaced() {
        let mut process = DeterministicArrivals::new(4.0);
        let mut rng = Pcg64::seed_from_u64(1);
        let arrivals = process.arrivals_until(1.0, &mut rng);
        assert_eq!(arrivals.len(), 3); // 0.25, 0.5, 0.75
        assert!((arrivals[0] - 0.25).abs() < 1e-12);
        assert!((arrivals[2] - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn deterministic_rejects_zero_rate() {
        DeterministicArrivals::new(0.0);
    }

    #[test]
    fn empty_horizon_yields_no_arrivals() {
        let mut process = PoissonArrivals::new(1000.0);
        let mut rng = Pcg64::seed_from_u64(3);
        assert!(process.arrivals_until(0.0, &mut rng).is_empty());
    }
}
