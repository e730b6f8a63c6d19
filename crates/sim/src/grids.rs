//! The parameter grids the `reproduce` binary (`src/bin/reproduce.rs`)
//! sweeps when it regenerates the data series behind the paper's figures.

/// Sampling-rate grid (fractions) used on the x-axis of Figs. 4–11.
///
/// The paper sweeps 0.1%–50% on a log axis; ten points are enough to see the
/// crossings of the metric with the acceptability line.
pub fn rate_grid() -> Vec<f64> {
    vec![0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5]
}

/// `t` values of Figs. 4, 5, 10 and 11.
pub const TOP_T_VALUES: [u32; 5] = [1, 2, 5, 10, 25];

/// Pareto shapes of Figs. 6–7.
pub const BETA_VALUES: [f64; 5] = [1.2, 1.5, 2.0, 2.5, 3.0];

/// Flow-count factors of Figs. 8–9 (relative to the baseline N).
pub const N_FACTORS: [f64; 6] = [0.2, 0.5, 1.0, 2.5, 4.0, 5.0];

/// Flow-size grid (packets) of Figs. 1–3, log-spaced from 1 to 1000.
pub fn size_grid_log(points: usize) -> Vec<u64> {
    let points = points.max(2);
    (0..points)
        .map(|i| {
            let exponent = 3.0 * i as f64 / (points - 1) as f64; // 10^0 .. 10^3
            10f64.powf(exponent).round().max(1.0) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_well_formed() {
        let rates = rate_grid();
        assert!(rates.first().unwrap() <= &0.001);
        assert!(rates.last().unwrap() >= &0.5);
        assert!(rates.windows(2).all(|w| w[0] < w[1]));

        let sizes = size_grid_log(13);
        assert_eq!(sizes.first(), Some(&1));
        assert_eq!(sizes.last(), Some(&1000));
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(size_grid_log(1).len(), 2);
        assert_eq!(TOP_T_VALUES.len(), 5);
        assert_eq!(BETA_VALUES.len(), 5);
        assert_eq!(N_FACTORS.len(), 6);
    }
}
