//! Rank comparison on plain value vectors: Kendall's τ and mid-ranks.
//!
//! The paper's performance metric is a *swapped-pair count*: the number of
//! flow pairs whose relative order differs between the true list and the
//! sampled list (Sec. 5.1 for ranking, Sec. 7.1 for detection). That count,
//! applied to concrete before/after-sampling flow tables, lives in
//! `flowrank-core::metrics`. This module holds the two generic helpers the
//! usage-pricing example uses beside it: τ-a between true and estimated
//! sizes, and mid-ranks with ties.

/// Kendall rank-correlation coefficient τ-a between two score vectors.
///
/// `τ = (concordant − discordant) / (n(n−1)/2)`. Returns `None` for vectors
/// with fewer than two elements.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "rank vectors must have equal length");
    let n = a.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let prod = (a[i] - a[j]) * (b[i] - b[j]);
            if prod > 0.0 {
                concordant += 1;
            } else if prod < 0.0 {
                discordant += 1;
            }
        }
    }
    let total = (n * (n - 1) / 2) as f64;
    Some((concordant - discordant) as f64 / total)
}

/// Assigns fractional (mid) ranks to a vector of scores, 1-based.
pub fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| {
        values[i]
            .partial_cmp(&values[j])
            .expect("NaN in ranks input")
    });
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Mid-rank for the tie group [i, j].
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kendall_tau_single_swap() {
        let a = [10.0, 9.0, 8.0, 7.0];
        let b = [10.0, 8.0, 9.0, 7.0]; // items 1 and 2 swapped
                                       // 5 concordant, 1 discordant out of 6 pairs → 2/3.
        let tau = kendall_tau(&a, &b).unwrap();
        assert!((tau - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_ties_count_as_neither() {
        let a = [3.0, 2.0, 1.0];
        let b = [2.0, 2.0, 1.0];
        // The tied pair is neither concordant nor discordant: τ-a = 2/3.
        let tau = kendall_tau(&a, &b).unwrap();
        assert!((tau - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn kendall_tau_length_mismatch_panics() {
        kendall_tau(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn kendall_tau_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(kendall_tau(&a, &b), Some(1.0));
        let c = [40.0, 30.0, 20.0, 10.0];
        assert_eq!(kendall_tau(&a, &c), Some(-1.0));
        assert_eq!(kendall_tau(&[1.0], &[1.0]), None);
    }

    #[test]
    fn kendall_tau_partial() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 3.0, 2.0];
        // 2 concordant, 1 discordant out of 3 pairs → 1/3.
        let tau = kendall_tau(&a, &b).unwrap();
        assert!((tau - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_with_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
        let r = ranks(&[5.0]);
        assert_eq!(r, vec![1.0]);
    }
}
