//! Probability distributions used across the workspace.
//!
//! Two small traits split the catalogue by support:
//!
//! * [`DiscreteDistribution`] — integer-valued laws: [`Binomial`] (sampled
//!   flow sizes, Eq. 1 of the paper), [`Geometric`] (a toy flow-size
//!   model) and [`Zipf`] (prefix popularity of the synthetic
//!   address generator).
//! * [`ContinuousDistribution`] — real-valued laws: [`Exponential`]
//!   (inter-arrival times and flow durations), [`Pareto`] and
//!   [`BoundedPareto`] (heavy-tailed flow sizes, Sec. 6) and [`LogNormal`]
//!   (the short-tailed Abilene-like model of Sec. 8.3).
//!
//! All constructors validate their parameters and return a
//! [`crate::StatsResult`]; sampling draws from a caller-supplied
//! [`Rng`] so that every experiment stays reproducible under a fixed seed.

use crate::error::{
    require_finite, require_positive, require_probability, StatsError, StatsResult,
};
use crate::rng::Rng;
use crate::special::{erfc, ln_choose};

/// An integer-valued probability distribution on `0, 1, 2, …`.
pub trait DiscreteDistribution {
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;

    /// Cumulative probability `P{X ≤ k}`.
    fn cdf(&self, k: u64) -> f64;

    /// Draws one value.
    fn sample(&self, rng: &mut dyn Rng) -> u64;

    /// Mean of the distribution, if finite.
    fn mean(&self) -> Option<f64>;
}

/// A real-valued probability distribution.
pub trait ContinuousDistribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P{X ≤ x}`.
    fn cdf(&self, x: f64) -> f64;

    /// Survival function `P{X > x}`; defaults to `1 − cdf(x)`.
    fn sf(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }

    /// Quantile function (inverse CDF) for `q ∈ [0, 1)`.
    fn quantile(&self, q: f64) -> f64;

    /// Draws one value by inverse-CDF sampling.
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.quantile(rng.next_f64())
    }

    /// Mean of the distribution, if finite.
    fn mean(&self) -> Option<f64>;
}

// ---------------------------------------------------------------------------
// Binomial
// ---------------------------------------------------------------------------

/// Binomial(n, p) — the sampled size of a flow of `n` packets under
/// independent packet sampling at rate `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a Binomial(n, p) distribution; `p` must lie in `[0, 1]`.
    pub fn new(n: u64, p: f64) -> StatsResult<Self> {
        require_finite("p", p)?;
        require_probability("p", p)?;
        Ok(Binomial { n, p })
    }
}

impl DiscreteDistribution for Binomial {
    fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p <= 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p >= 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        // Log-space evaluation keeps the tail accurate for large n.
        let log_pmf =
            ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (-self.p).ln_1p();
        log_pmf.exp()
    }

    fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        let mut total = 0.0;
        for i in 0..=k {
            total += self.pmf(i);
        }
        total.min(1.0)
    }

    fn sample(&self, rng: &mut dyn Rng) -> u64 {
        let mut hits = 0;
        for _ in 0..self.n {
            if rng.bernoulli(self.p) {
                hits += 1;
            }
        }
        hits
    }

    fn mean(&self) -> Option<f64> {
        Some(self.n as f64 * self.p)
    }
}

// ---------------------------------------------------------------------------
// Geometric
// ---------------------------------------------------------------------------

/// Geometric(p) on `0, 1, 2, …` — number of failures before the first
/// success; `P{X = k} = (1 − p)^k p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates a Geometric(p) distribution; `p` must lie in `(0, 1]`.
    pub fn new(p: f64) -> StatsResult<Self> {
        require_positive("p", p)?;
        require_probability("p", p)?;
        Ok(Geometric { p })
    }
}

impl DiscreteDistribution for Geometric {
    fn pmf(&self, k: u64) -> f64 {
        (1.0 - self.p).powi(k as i32) * self.p
    }

    fn cdf(&self, k: u64) -> f64 {
        1.0 - (1.0 - self.p).powi(k as i32 + 1)
    }

    fn sample(&self, rng: &mut dyn Rng) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        let u = rng.next_open_f64();
        (u.ln() / (1.0 - self.p).ln()).floor().max(0.0) as u64
    }

    fn mean(&self) -> Option<f64> {
        Some((1.0 - self.p) / self.p)
    }
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

/// Zipf popularity over the ranks `0 … n−1`: `P{X = k} ∝ (k + 1)^{−s}`.
///
/// Rank 0 is the most popular item. Sampling uses a precomputed cumulative
/// table and binary search, so a draw costs `O(log n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf law over `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> StatsResult<Self> {
        require_positive("n", n as f64)?;
        require_positive("s", s)?;
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += ((k + 1) as f64).powf(-s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Ok(Zipf { cumulative })
    }
}

impl DiscreteDistribution for Zipf {
    fn pmf(&self, k: u64) -> f64 {
        let k = k as usize;
        if k >= self.cumulative.len() {
            return 0.0;
        }
        if k == 0 {
            self.cumulative[0]
        } else {
            self.cumulative[k] - self.cumulative[k - 1]
        }
    }

    fn cdf(&self, k: u64) -> f64 {
        let k = k as usize;
        if k >= self.cumulative.len() {
            1.0
        } else {
            self.cumulative[k]
        }
    }

    fn sample(&self, rng: &mut dyn Rng) -> u64 {
        let u = rng.next_f64();
        self.cumulative.partition_point(|&c| c <= u) as u64
    }

    fn mean(&self) -> Option<f64> {
        Some(
            (0..self.cumulative.len() as u64)
                .map(|k| k as f64 * self.pmf(k))
                .sum(),
        )
    }
}

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

/// Exponential(λ) with density `λ e^{−λx}` on `x ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an Exponential distribution with rate `λ > 0`.
    pub fn new(rate: f64) -> StatsResult<Self> {
        require_positive("rate", rate)?;
        Ok(Exponential { rate })
    }

    /// Creates an Exponential distribution with the given mean `1/λ > 0`.
    pub fn with_mean(mean: f64) -> StatsResult<Self> {
        require_positive("mean", mean)?;
        Self::new(1.0 / mean)
    }
}

impl ContinuousDistribution for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0 - f64::EPSILON);
        -(1.0 - q).ln() / self.rate
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        -rng.next_open_f64().ln() / self.rate
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.rate)
    }
}

// ---------------------------------------------------------------------------
// Standard Normal quantile
// ---------------------------------------------------------------------------

/// Quantile of the standard Normal distribution (Acklam's rational
/// approximation refined by one Halley step on `erfc`), accurate to
/// ~1e-15 over `(0, 1)`.
#[allow(clippy::excessive_precision)] // Acklam's published coefficients
pub(crate) fn standard_normal_quantile(q: f64) -> f64 {
    if q <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if q >= 1.0 {
        return f64::INFINITY;
    }
    // Acklam's inverse-normal-CDF coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let x = if q < 0.02425 {
        let t = (-2.0 * q.ln()).sqrt();
        (((((C[0] * t + C[1]) * t + C[2]) * t + C[3]) * t + C[4]) * t + C[5])
            / ((((D[0] * t + D[1]) * t + D[2]) * t + D[3]) * t + 1.0)
    } else if q > 1.0 - 0.02425 {
        let t = (-2.0 * (1.0 - q).ln()).sqrt();
        -(((((C[0] * t + C[1]) * t + C[2]) * t + C[3]) * t + C[4]) * t + C[5])
            / ((((D[0] * t + D[1]) * t + D[2]) * t + D[3]) * t + 1.0)
    } else {
        let t = q - 0.5;
        let r = t * t;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * t
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    };
    // One Halley refinement against the high-precision erfc-based CDF.
    let e = 0.5 * erfc(-x / std::f64::consts::SQRT_2) - q;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

// ---------------------------------------------------------------------------
// Pareto
// ---------------------------------------------------------------------------

/// Pareto(a, β) with survival `P{X > x} = (x/a)^{−β}` on `x ≥ a` — the
/// heavy-tailed flow-size law of Sec. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution from its scale `a > 0` and shape `β > 0`.
    pub(crate) fn new(scale: f64, shape: f64) -> StatsResult<Self> {
        require_positive("scale", scale)?;
        require_positive("shape", shape)?;
        Ok(Pareto { scale, shape })
    }

    /// Creates a Pareto distribution with the given mean; requires `β > 1`
    /// (otherwise the mean is infinite).
    pub fn with_mean(mean: f64, shape: f64) -> StatsResult<Self> {
        require_positive("mean", mean)?;
        if !(shape.is_finite() && shape > 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "shape",
                value: shape,
                constraint: "> 1 for a finite mean",
            });
        }
        Self::new(mean * (shape - 1.0) / shape, shape)
    }

    /// The scale parameter `a` (the smallest possible value).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The shape (tail index) β.
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl ContinuousDistribution for Pareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            self.shape * (self.scale / x).powf(self.shape) / x
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.scale {
            0.0
        } else {
            1.0 - (x / self.scale).powf(-self.shape)
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= self.scale {
            1.0
        } else {
            (x / self.scale).powf(-self.shape)
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0 - f64::EPSILON);
        self.scale * (1.0 - q).powf(-1.0 / self.shape)
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.scale * rng.next_open_f64().powf(-1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        if self.shape > 1.0 {
            Some(self.scale * self.shape / (self.shape - 1.0))
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// BoundedPareto
// ---------------------------------------------------------------------------

/// Pareto truncated to `[lo, hi]` — "Pareto body, capped tail".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    shape: f64,
    /// `1 − (lo/hi)^β`, the total untruncated mass inside `[lo, hi]`.
    mass: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto on `[lo, hi]` with shape `β > 0`.
    pub fn new(lo: f64, hi: f64, shape: f64) -> StatsResult<Self> {
        require_positive("lo", lo)?;
        require_positive("shape", shape)?;
        if !(hi.is_finite() && hi > lo) {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                constraint: "finite and > lo",
            });
        }
        Ok(BoundedPareto {
            lo,
            hi,
            shape,
            mass: 1.0 - (lo / hi).powf(shape),
        })
    }
}

impl ContinuousDistribution for BoundedPareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.shape * (self.lo / x).powf(self.shape) / (x * self.mass)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (1.0 - (self.lo / x).powf(self.shape)) / self.mass
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.hi;
        }
        self.lo * (1.0 - q * self.mass).powf(-1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        // Finite for every shape because the support is bounded.
        let b = self.shape;
        let mean = if (b - 1.0).abs() < 1e-12 {
            self.lo * (self.hi / self.lo).ln() / self.mass * b
        } else {
            b / (b - 1.0) * (self.lo - self.hi * (self.lo / self.hi).powf(b)) / self.mass
        };
        Some(mean)
    }
}

// ---------------------------------------------------------------------------
// LogNormal
// ---------------------------------------------------------------------------

/// Log-normal: `ln X ~ Normal(μ, σ²)` — the short-tailed flow-size model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the log-space parameters.
    pub(crate) fn new(mu: f64, sigma: f64) -> StatsResult<Self> {
        require_finite("mu", mu)?;
        require_positive("sigma", sigma)?;
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a log-normal distribution with the given mean and squared
    /// coefficient of variation `cv² > 0`.
    pub fn with_mean_cv2(mean: f64, cv2: f64) -> StatsResult<Self> {
        require_positive("mean", mean)?;
        require_positive("cv2", cv2)?;
        let sigma2 = (1.0 + cv2).ln();
        Self::new(mean.ln() - sigma2 / 2.0, sigma2.sqrt())
    }
}

impl ContinuousDistribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        0.5 * erfc(z / std::f64::consts::SQRT_2)
    }

    fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * standard_normal_quantile(q)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + self.sigma * self.sigma / 2.0).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Pcg64, SeedableRng};

    #[test]
    fn binomial_pmf_sums_to_one_and_matches_closed_forms() {
        let b = Binomial::new(20, 0.3).unwrap();
        let total: f64 = (0..=20).map(|k| b.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // P{X = 0} = (1 − p)^n.
        assert!((b.pmf(0) - 0.7f64.powi(20)).abs() < 1e-15);
        // P{X ≤ 1} = (1 − p)^{n−1} (1 − p + np).
        let closed = 0.7f64.powi(19) * (0.7 + 20.0 * 0.3);
        assert!((b.cdf(1) - closed).abs() < 1e-12);
        assert_eq!(b.pmf(21), 0.0);
        assert_eq!(b.cdf(20), 1.0);
        assert_eq!(b.mean(), Some(6.0));
        assert_eq!(b.n, 20);
        assert!((b.p - 0.3).abs() < 1e-15);
    }

    #[test]
    fn binomial_degenerate_rates() {
        let zero = Binomial::new(10, 0.0).unwrap();
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.pmf(3), 0.0);
        let one = Binomial::new(10, 1.0).unwrap();
        assert_eq!(one.pmf(10), 1.0);
        assert_eq!(one.pmf(9), 0.0);
        assert!(Binomial::new(10, 1.5).is_err());
        assert!(Binomial::new(10, -0.1).is_err());
    }

    #[test]
    fn binomial_sampling_matches_mean() {
        let b = Binomial::new(50, 0.2).unwrap();
        let mut rng = Pcg64::seed_from_u64(1);
        let n = 20_000;
        let mean = (0..n).map(|_| b.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn geometric_basics() {
        let g = Geometric::new(0.25).unwrap();
        let total: f64 = (0..200).map(|k| g.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((g.cdf(0) - 0.25).abs() < 1e-15);
        assert_eq!(g.mean(), Some(3.0));
        let mut rng = Pcg64::seed_from_u64(2);
        let n = 50_000;
        let mean = (0..n).map(|_| g.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "sample mean {mean}");
        assert!(Geometric::new(0.0).is_err());
        assert_eq!(Geometric::new(1.0).unwrap().sample(&mut rng), 0);
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(100, 1.0).unwrap();
        assert_eq!(z.cumulative.len(), 100);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        assert!((z.cdf(99) - 1.0).abs() < 1e-12);
        let mut rng = Pcg64::seed_from_u64(3);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 must be the most sampled");
        assert!(z.mean().unwrap() > 0.0);
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, 0.0).is_err());
    }

    #[test]
    fn exponential_closed_forms() {
        let e = Exponential::with_mean(4.0).unwrap();
        assert!((e.rate - 0.25).abs() < 1e-15);
        assert_eq!(e.mean(), Some(4.0));
        assert!((e.sf(e.quantile(0.9)) - 0.1).abs() < 1e-12);
        assert!((e.cdf(4.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-15);
        assert_eq!(e.sf(-1.0), 1.0);
        assert_eq!(e.pdf(-1.0), 0.0);
        let mut rng = Pcg64::seed_from_u64(4);
        let n = 50_000;
        let mean = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "sample mean {mean}");
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::with_mean(-1.0).is_err());
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let cdf = |x: f64| 0.5 * erfc(-x / std::f64::consts::SQRT_2);
        for &q in &[1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6] {
            let x = standard_normal_quantile(q);
            assert!((cdf(x) - q).abs() < 1e-11, "q = {q}");
        }
        assert!(standard_normal_quantile(0.5).abs() < 1e-15);
    }

    #[test]
    fn pareto_calibration_and_inverse() {
        let p = Pareto::with_mean(9.6, 1.5).unwrap();
        assert!((p.scale() - 3.2).abs() < 1e-12);
        assert!((p.mean().unwrap() - 9.6).abs() < 1e-12);
        assert!((p.sf(32.0) - (32.0f64 / 3.2).powf(-1.5)).abs() < 1e-12);
        for &q in &[0.5, 0.9, 0.999] {
            assert!((p.sf(p.quantile(q)) - (1.0 - q)).abs() < 1e-9);
        }
        assert_eq!(Pareto::new(2.0, 0.8).unwrap().mean(), None);
        assert!(Pareto::with_mean(9.6, 0.9).is_err());
        // At one mean, the heavier tail (smaller β) has the larger top quantiles.
        let heavy = Pareto::with_mean(9.6, 1.2).unwrap();
        let light = Pareto::with_mean(9.6, 3.0).unwrap();
        assert!(heavy.quantile(0.9999) > light.quantile(0.9999));
        let mut rng = Pcg64::seed_from_u64(5);
        for _ in 0..1_000 {
            assert!(p.sample(&mut rng) >= p.scale());
        }
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let b = BoundedPareto::new(1.0, 100.0, 1.1).unwrap();
        assert_eq!(b.lo, 1.0);
        assert_eq!(b.hi, 100.0);
        assert_eq!(b.cdf(0.5), 0.0);
        assert_eq!(b.cdf(200.0), 1.0);
        assert!((b.cdf(b.quantile(0.42)) - 0.42).abs() < 1e-12);
        let mut rng = Pcg64::seed_from_u64(6);
        for _ in 0..2_000 {
            let x = b.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x));
        }
        let mean = b.mean().unwrap();
        assert!(mean > 1.0 && mean < 100.0);
        // β = 1 takes the logarithmic branch.
        let unit = BoundedPareto::new(1.0, 10.0, 1.0).unwrap();
        assert!(unit.mean().unwrap() > 1.0);
        assert!(BoundedPareto::new(5.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn lognormal_mean_cv2_calibration() {
        let l = LogNormal::with_mean_cv2(12.0, 4.0).unwrap();
        assert!((l.mean().unwrap() - 12.0).abs() < 1e-9);
        assert!((l.sf(l.quantile(0.75)) - 0.25).abs() < 1e-9);
        assert_eq!(l.pdf(0.0), 0.0);
        assert_eq!(l.cdf(0.0), 0.0);
        assert_eq!(l.sf(-1.0), 1.0);
        let mut rng = Pcg64::seed_from_u64(7);
        let n = 100_000;
        let mean = (0..n).map(|_| l.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 12.0).abs() < 0.5, "sample mean {mean}");
        assert!(LogNormal::with_mean_cv2(-1.0, 1.0).is_err());
    }
}
