//! Per-bin feedback fed to controllers, and the decision they emit.

/// Everything a controller gets to see about one closed measurement bin.
///
/// Observations are derived by the monitor from the bin's `BinReport` and
/// the ground-truth ranking it already computes per bin, so attaching a
/// controller adds no extra pass over the packet stream. All fields are
/// plain values — an observation stream fully determines a controller's
/// decision stream (see the crate-level determinism contract).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinObservation {
    /// Index of the bin that just closed (0-based).
    pub bin_index: u64,
    /// Sampling rate the controlled lane ran during this bin.
    pub applied_rate: f64,
    /// Total packets the monitor saw in the bin (pre-sampling).
    pub packets: u64,
    /// Distinct true flows in the bin.
    pub flows: u64,
    /// Packets the controlled lane actually kept in the bin.
    pub kept_packets: u64,
    /// Adjacent top-t pairs the controlled lane ranked in the wrong order.
    pub ranking_swaps: u64,
    /// Adjacent top-t pairs compared (0 when the bin had < 2 ranked flows).
    pub ranking_pairs: u64,
    /// True top-t flows the controlled lane missed entirely.
    pub missed_top_flows: u64,
    /// Fraction of the true top-t set that changed since the previous bin
    /// (0.0 on the first bin and for perfectly stable rankings).
    pub top_churn: f64,
    /// True sizes (packet counts) of the bin's top flows, sorted
    /// descending — typically the top `t + 1` so adjacent top-t pairs are
    /// all available to a model inverter.
    pub top_sizes: Vec<u64>,
}

impl BinObservation {
    /// Fraction of adjacent top-t pairs the lane misranked, in `[0, 1]`.
    ///
    /// Returns `0.0` when no pairs were compared (empty or near-empty bin)
    /// so controllers never divide by zero on idle traffic.
    pub fn swapped_fraction(&self) -> f64 {
        if self.ranking_pairs == 0 {
            0.0
        } else {
            self.ranking_swaps as f64 / self.ranking_pairs as f64
        }
    }

    /// Whether the bin carried enough traffic to be a usable feedback
    /// signal: at least one ranked pair was compared.
    pub(crate) fn has_signal(&self) -> bool {
        self.ranking_pairs > 0
    }
}

/// A controller's output: the sampling rate the controlled lane should run
/// during the next bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateDecision {
    /// Target sampling rate in `(0, 1]`.
    pub rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapped_fraction_is_zero_without_pairs() {
        let observation = BinObservation::default();
        assert_eq!(observation.swapped_fraction(), 0.0);
        assert!(!observation.has_signal());
    }

    #[test]
    fn swapped_fraction_divides_swaps_by_pairs() {
        let observation = BinObservation {
            ranking_swaps: 3,
            ranking_pairs: 9,
            ..BinObservation::default()
        };
        assert!((observation.swapped_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!(observation.has_signal());
    }
}
