//! Flow-arrival processes.
//!
//! The paper reports average flow arrival rates on the monitored Sprint link
//! (2360 flows/s for 5-tuple flows). The synthetic generators model flow
//! arrivals as a homogeneous Poisson process with that rate.

use flowrank_stats::dist::{ContinuousDistribution, Exponential};
use flowrank_stats::rng::Rng;

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

    /// Generates every arrival time in `[0, horizon)` seconds, in order.
    pub(crate) fn arrivals_until(&self, horizon: f64, rng: &mut dyn Rng) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = self.inter_arrival.sample(rng);
        while t < horizon {
            out.push(t);
            t += self.inter_arrival.sample(rng);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn poisson_arrival_count_matches_rate() {
        let process = PoissonArrivals::new(100.0);
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
        let a = PoissonArrivals::new(10.0);
        let b = PoissonArrivals::new(10.0);
        let mut ra = Pcg64::seed_from_u64(7);
        let mut rb = Pcg64::seed_from_u64(7);
        assert_eq!(
            a.arrivals_until(10.0, &mut ra),
            b.arrivals_until(10.0, &mut rb)
        );
    }

    #[test]
    fn empty_horizon_yields_no_arrivals() {
        let process = PoissonArrivals::new(1000.0);
        let mut rng = Pcg64::seed_from_u64(3);
        assert!(process.arrivals_until(0.0, &mut rng).is_empty());
    }
}
