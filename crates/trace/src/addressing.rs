//! Destination-address assignment with prefix popularity.
//!
//! The paper compares two flow definitions on the same traffic: 5-tuple flows
//! and /24 destination-prefix flows. On the Sprint link the prefix definition
//! yields roughly 7× fewer, 3.5× larger flows (0.1M vs 0.7M flows per 5-minute
//! interval; 16.6 KB vs 4.8 KB mean size). To reproduce that relationship the
//! generator draws each flow's destination /24 prefix from a Zipf popularity
//! law over a finite prefix pool — a handful of popular prefixes receive many
//! flows while the long tail receives one or two — and then picks a host
//! within the prefix.

use std::net::Ipv4Addr;

use flowrank_stats::dist::{DiscreteDistribution, Zipf};
use flowrank_stats::rng::Rng;

/// Assigns destination addresses to generated flows.
#[derive(Debug, Clone)]
pub(crate) struct PrefixAddresser {
    popularity: Zipf,
    /// Base of the address range; prefix `i` is `base + i·256`.
    base: u32,
}

impl PrefixAddresser {
    /// Creates an addresser over `prefix_count` /24 prefixes with Zipf
    /// exponent `zipf_exponent`.
    ///
    /// # Panics
    ///
    /// Panics when `prefix_count` is zero or the exponent is not positive
    /// (configuration errors).
    pub(crate) fn new(prefix_count: usize, zipf_exponent: f64) -> Self {
        let popularity = Zipf::new(prefix_count, zipf_exponent)
            .expect("prefix pool must be non-empty with a positive Zipf exponent");
        PrefixAddresser {
            popularity,
            // 100.64.0.0 keeps generated prefixes inside a recognisable block.
            base: u32::from(Ipv4Addr::new(100, 64, 0, 0)),
        }
    }

    /// Draws a destination address: a Zipf-popular /24 prefix and a uniform
    /// host within it.
    pub(crate) fn draw(&self, rng: &mut dyn Rng) -> Ipv4Addr {
        let prefix_rank = self.popularity.sample(rng) as u32;
        let host = 1 + (rng.next_below(254)) as u32; // avoid .0 and .255
        Ipv4Addr::from(self.base + prefix_rank * 256 + host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowrank_net::{DstPrefix, FlowMap};
    use flowrank_stats::rng::{Pcg64, SeedableRng};

    #[test]
    fn draws_stay_in_pool() {
        let addresser = PrefixAddresser::new(100, 1.0);
        let mut rng = Pcg64::seed_from_u64(11);
        for _ in 0..10_000 {
            let addr = addresser.draw(&mut rng);
            let prefix = DstPrefix::of(addr, 24);
            let offset = u32::from(prefix.network) - u32::from(Ipv4Addr::new(100, 64, 0, 0));
            assert_eq!(offset % 256, 0);
            assert!((offset / 256) < 100);
            let host = addr.octets()[3];
            assert!((1..=254).contains(&host));
        }
    }

    #[test]
    fn popular_prefix_receives_most_flows() {
        let addresser = PrefixAddresser::new(50, 1.2);
        let mut rng = Pcg64::seed_from_u64(5);
        let mut counts: FlowMap<Ipv4Addr, usize> = FlowMap::new();
        for _ in 0..20_000 {
            let addr = addresser.draw(&mut rng);
            counts.upsert(DstPrefix::of(addr, 24).network, || 1, |c| *c += 1);
        }
        let rank0 = counts
            .get(&Ipv4Addr::from(addresser.base))
            .copied()
            .unwrap_or(0);
        let max = counts.values().copied().max().unwrap();
        assert_eq!(rank0, max, "the rank-0 prefix must be the most popular");
        // Aggregation actually reduces the number of distinct keys.
        assert!(counts.len() <= 50);
        assert!(counts.len() > 10);
    }

    #[test]
    fn aggregation_ratio_is_tunable() {
        // A steeper Zipf over a smaller pool concentrates flows more.
        let concentrated = PrefixAddresser::new(20, 1.5);
        let spread = PrefixAddresser::new(2000, 0.5);
        let mut rng = Pcg64::seed_from_u64(17);
        let distinct = |a: &PrefixAddresser, rng: &mut Pcg64| {
            let mut set = std::collections::HashSet::new();
            for _ in 0..5_000 {
                set.insert(DstPrefix::of(a.draw(rng), 24).network);
            }
            set.len()
        };
        let d_conc = distinct(&concentrated, &mut rng);
        let d_spread = distinct(&spread, &mut rng);
        assert!(d_conc < d_spread);
    }

    #[test]
    fn deterministic_per_seed() {
        let addresser = PrefixAddresser::new(64, 1.0);
        let mut a = Pcg64::seed_from_u64(9);
        let mut b = Pcg64::seed_from_u64(9);
        let seq_a: Vec<Ipv4Addr> = (0..100).map(|_| addresser.draw(&mut a)).collect();
        let seq_b: Vec<Ipv4Addr> = (0..100).map(|_| addresser.draw(&mut b)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    #[should_panic(expected = "prefix pool")]
    fn zero_pool_panics() {
        PrefixAddresser::new(0, 1.0);
    }
}
