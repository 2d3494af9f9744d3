//! Summary statistics and significance testing.
//!
//! Appendix C.1 of the paper reports one-tailed t-tests between WebQA and
//! its input-modality ablations; Table 4 reports variance reductions over
//! 20 runs. This module provides the mean / variance / Welch t-test
//! machinery used by those benches.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n − 1 denominator). Returns 0.0 when fewer
/// than two samples are given.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Result of a Welch two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTest {
    /// The t statistic (positive when sample `a` has the larger mean).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// One-tailed p-value for the alternative `mean(a) > mean(b)`.
    pub p_one_tailed: f64,
}

/// Welch's unequal-variance t-test of `mean(a) > mean(b)` (one-tailed).
///
/// Degenerate inputs (fewer than two samples on either side, or two
/// identical constant samples) yield `t = 0, p = 0.5`.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> TTest {
    if a.len() < 2 || b.len() < 2 {
        return TTest {
            t: 0.0,
            df: 1.0,
            p_one_tailed: 0.5,
        };
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return TTest {
            t: 0.0,
            df: na + nb - 2.0,
            p_one_tailed: 0.5,
        };
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let p = 1.0 - student_t_cdf(t, df);
    TTest {
        t,
        df,
        p_one_tailed: p,
    }
}

/// CDF of Student's t distribution with `df` degrees of freedom.
///
/// Computed through the regularized incomplete beta function
/// `I_x(df/2, 1/2)` (Abramowitz & Stegun 26.7.1), which we evaluate with a
/// Lentz continued fraction — no external math crate required.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    let x = df / (df + t * t);
    let p = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Regularized incomplete beta function `I_x(a, b)` for `x ∈ [0, 1]`.
fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    // Continued fraction converges fastest for x < (a+1)/(a+b+2); use the
    // symmetry I_x(a,b) = 1 − I_{1−x}(b,a) otherwise.
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
    }
}

/// Lentz's algorithm for the continued fraction of the incomplete beta.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-30;

    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // even step
        let num = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
        d = 1.0 + num * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + num / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // odd step
        let num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
        d = 1.0 + num * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + num / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI.ln() - (std::f64::consts::PI * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEFFS[0];
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[1.0]), 0.0);
        // variance of {1,2,3,4} = 5/3
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi)
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn t_cdf_symmetry_and_center() {
        assert!((student_t_cdf(0.0, 5.0) - 0.5).abs() < 1e-10);
        let p = student_t_cdf(1.3, 7.0);
        let q = student_t_cdf(-1.3, 7.0);
        assert!((p + q - 1.0).abs() < 1e-10);
    }

    #[test]
    fn t_cdf_reference_values() {
        // t=2.015, df=5 is the 95th percentile (standard t-table value).
        assert!((student_t_cdf(2.015, 5.0) - 0.95).abs() < 1e-3);
        // t=1.812, df=10 is the 95th percentile.
        assert!((student_t_cdf(1.812, 10.0) - 0.95).abs() < 1e-3);
        // Large df approaches the normal distribution: Φ(1.96) ≈ 0.975.
        assert!((student_t_cdf(1.96, 10_000.0) - 0.975).abs() < 2e-3);
    }

    #[test]
    fn welch_detects_clear_difference() {
        let a = [0.9, 0.92, 0.91, 0.88, 0.93, 0.9];
        let b = [0.5, 0.52, 0.48, 0.51, 0.49, 0.5];
        let r = welch_t_test(&a, &b);
        assert!(r.t > 10.0);
        assert!(r.p_one_tailed < 0.001);
    }

    #[test]
    fn welch_identical_samples() {
        let a = [0.5, 0.6, 0.7];
        let r = welch_t_test(&a, &a);
        assert!(r.t.abs() < 1e-12);
        assert!((r.p_one_tailed - 0.5).abs() < 1e-9);
    }

    #[test]
    fn welch_degenerate_inputs() {
        let r = welch_t_test(&[1.0], &[2.0, 3.0]);
        assert_eq!(r.p_one_tailed, 0.5);
        let r = welch_t_test(&[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(r.p_one_tailed, 0.5);
    }

    #[test]
    fn incomplete_beta_edges() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(1,1) = x (uniform distribution CDF)
        assert!((regularized_incomplete_beta(1.0, 1.0, 0.37) - 0.37).abs() < 1e-10);
    }
}
