//! CSV-style rendering of experiment results.
//!
//! The figure-reproduction binary writes its data series in a simple
//! comma-separated format (`bin_start_seconds, mean, std_dev` per line, one
//! block per sampling rate) that can be plotted directly with gnuplot or
//! matplotlib to recreate the figures of Sec. 8.

use std::fmt::Write as _;

use crate::experiment::{ExperimentResult, RateSeries};

/// Renders one rate series as CSV rows (`bin_start_seconds,mean,std`).
pub(crate) fn series_to_csv(series: &RateSeries, bin_seconds: f64, detection: bool) -> String {
    let mut out = String::new();
    let (means, stds) = if detection {
        (&series.detection_mean, &series.detection_std)
    } else {
        (&series.ranking_mean, &series.ranking_std)
    };
    let _ = writeln!(out, "# sampling rate = {}", series.rate);
    let _ = writeln!(out, "bin_start_s,mean_swapped_pairs,std_dev");
    for (i, (mean, std)) in means.iter().zip(stds.iter()).enumerate() {
        let _ = writeln!(out, "{},{:.6},{:.6}", i as f64 * bin_seconds, mean, std);
    }
    out
}

/// Renders an entire experiment result: one CSV block per sampling rate.
pub fn result_to_csv(result: &ExperimentResult, bin_seconds: f64, detection: bool) -> String {
    result
        .series
        .iter()
        .map(|s| series_to_csv(s, bin_seconds, detection))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders a compact one-line-per-rate summary table (overall means).
pub fn result_summary_table(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>24} {:>24}",
        "rate", "mean ranking swaps", "mean detection swaps"
    );
    for series in &result.series {
        let _ = writeln!(
            out,
            "{:>11.4}% {:>24.3} {:>24.3}",
            series.rate * 100.0,
            series.overall_ranking_mean(),
            series.overall_detection_mean()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RateSeries;

    fn sample_result() -> ExperimentResult {
        ExperimentResult {
            bin_count: 2,
            series: vec![
                RateSeries {
                    rate: 0.01,
                    ranking_mean: vec![10.0, 12.0],
                    ranking_std: vec![1.0, 2.0],
                    detection_mean: vec![3.0, 4.0],
                    detection_std: vec![0.5, 0.25],
                },
                RateSeries {
                    rate: 0.5,
                    ranking_mean: vec![0.1, 0.2],
                    ranking_std: vec![0.05, 0.04],
                    detection_mean: vec![0.0, 0.1],
                    detection_std: vec![0.0, 0.02],
                },
            ],
        }
    }

    #[test]
    fn csv_contains_all_bins_and_rates() {
        let csv = result_to_csv(&sample_result(), 60.0, false);
        assert!(csv.contains("# sampling rate = 0.01"));
        assert!(csv.contains("# sampling rate = 0.5"));
        assert!(csv.contains("0,10.000000,1.000000"));
        assert!(csv.contains("60,12.000000,2.000000"));
        // Detection view switches the columns.
        let det = result_to_csv(&sample_result(), 60.0, true);
        assert!(det.contains("0,3.000000,0.500000"));
    }

    #[test]
    fn summary_table_lists_each_rate_once() {
        let table = result_summary_table(&sample_result());
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("1.0000%"));
        assert!(table.contains("50.0000%"));
    }
}
