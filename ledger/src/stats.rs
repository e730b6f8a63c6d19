//! Order statistics the ledger reports: medians, quartiles and the tail
//! percentile a sample is large enough to support.

/// Sorts `values` in place, ascending. Measurements are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Median of an ascending slice; `None` when it is empty.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of unsorted values (sorts a copy); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut copy = values.to_vec();
    sort(&mut copy);
    median_sorted(&copy)
}

/// First quartile, median and third quartile of an ascending slice, by the
/// rule of Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so the spreads this harness prints are the spreads a reviewer
/// recomputes. A single value is its own three quartiles; empty is `None`.
pub fn quartiles_sorted(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let m = sorted.len();
    if m == 0 {
        return None;
    }
    if m == 1 {
        return Some((sorted[0], sorted[0], sorted[0]));
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Quartiles of unsorted values (sorts a copy).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut copy = values.to_vec();
    sort(&mut copy);
    quartiles_sorted(&copy)
}

/// Distance between the quartiles as a share of the median — the spread the
/// benchmark contract bounds. `None` for an empty sample or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile, capped at `cap` (a fraction such as `0.95`),
/// that still has at least `beyond` samples above it, with the fraction it
/// stands for. A tail quoted from fewer samples is the reading of a few
/// outliers, not a percentile. `None` when the sample has no more than
/// `beyond` values.
pub fn tail_percentile(sorted: &[f64], cap: f64, beyond: usize) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    // Index i has n - 1 - i samples beyond it.
    let highest = n - 1 - beyond;
    let capped = ((cap * n as f64).ceil() as usize).saturating_sub(1);
    let index = highest.min(capped);
    Some((sorted[index], (index + 1) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&ten), Some(1.0));
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 would leave only five samples beyond it: the supported tail
        // is the 90th value.
        assert_eq!(tail_percentile(&hundred, 0.95, 10), Some((90.0, 0.9)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // With 1000 samples p95 has fifty beyond it, so the cap applies.
        assert_eq!(tail_percentile(&thousand, 0.95, 10), Some((950.0, 0.95)));
        // Ten samples or fewer support no tail at all.
        assert_eq!(tail_percentile(&hundred[..10], 0.95, 10), None);
        assert_eq!(
            tail_percentile(&hundred[..11], 0.95, 10),
            Some((1.0, 1.0 / 11.0))
        );
    }
}
