//! Special functions needed by the distribution machinery.
//!
//! The paper leans on standard normal-distribution statistics (Larsen & Marx,
//! ch. 7.3). Since no statistics crate is available offline, the error
//! function, its complement, and the standard-normal quantile are implemented
//! here from scratch via the regularized incomplete gamma function
//! (`erf(x) = P(1/2, x^2)`), which is accurate to near machine precision.

/// Natural log of the gamma function (Lanczos approximation, `g = 5`,
/// accurate to ~1e-15 for positive arguments).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_5e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularized lower incomplete gamma `P(a, x)`.
///
/// Series representation for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes `gammp`), in double precision.
pub(crate) fn gammp(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gammp domain error: a={a}, x={x}");
    // tidy:allow(PP004): exact endpoint identity of the incomplete gamma
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gser(a, x)
    } else {
        1.0 - gcf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
pub(crate) fn gammq(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gammq domain error: a={a}, x={x}");
    // tidy:allow(PP004): exact endpoint identity of the incomplete gamma
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gser(a, x)
    } else {
        gcf(a, x)
    }
}

/// Series evaluation of `P(a, x)`.
fn gser(a: f64, x: f64) -> f64 {
    const ITMAX: usize = 500;
    const EPS: f64 = 3e-16;
    let gln = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..ITMAX {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - gln).exp()
}

/// Continued-fraction evaluation of `Q(a, x)` (modified Lentz).
fn gcf(a: f64, x: f64) -> f64 {
    const ITMAX: usize = 500;
    const EPS: f64 = 3e-16;
    const FPMIN: f64 = 1e-300;
    let gln = ln_gamma(a);
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=ITMAX {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - gln).exp() * h
}

/// The complementary error function `erfc(x) = 1 - erf(x)`, computed
/// without cancellation in the upper tail (`Q(1/2, x^2)` for `x > 0`).
pub(crate) fn erfc(x: f64) -> f64 {
    // tidy:allow(PP004): erfc(0) is exactly 1 by symmetry
    if x == 0.0 {
        1.0
    } else if x < 0.0 {
        1.0 + gammp(0.5, x * x)
    } else {
        gammq(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Phi(x)`.
pub(crate) fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal probability density function `phi(x)`.
pub(crate) fn std_normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Peter Acklam's rational approximation (relative error ~1.15e-9), followed
/// by a single Halley refinement step against [`std_normal_cdf`], which drives
/// the error to near machine precision away from the extreme tails.
///
/// # Panics
///
/// Panics if `p` is not in the open interval `(0, 1)`.
pub(crate) fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile probability must lie in (0,1), got {p}"
    );

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
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
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step: x <- x - u/(1 + x u / 2) with u = (Phi(x)-p)/phi(x).
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error function `erf(x) = 2/sqrt(pi) * Int_0^x exp(-t^2) dt`,
    /// computed as `sign(x) * P(1/2, x^2)`. Exactly odd, `erf(0) == 0`.
    pub(crate) fn erf(x: f64) -> f64 {
        // tidy:allow(PP004): erf(0) is exactly 0 by symmetry
        if x == 0.0 {
            0.0
        } else if x < 0.0 {
            -gammp(0.5, x * x)
        } else {
            gammp(0.5, x * x)
        }
    }

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(1) = Gamma(2) = 1, Gamma(1/2) = sqrt(pi).
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // Gamma(5) = 24.
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn gammp_gammq_complement() {
        for &a in &[0.5, 1.0, 2.5, 10.0] {
            for i in 0..40 {
                let x = 0.25 * i as f64;
                assert!(
                    (gammp(a, x) + gammq(a, x) - 1.0).abs() < 1e-12,
                    "a={a}, x={x}"
                );
            }
        }
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-12);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(3.5) - 0.999_999_256_901_627_7).abs() < 1e-12);
    }

    #[test]
    fn erf_is_odd() {
        for i in 0..100 {
            let x = -3.0 + 0.06 * i as f64;
            assert!((erf(x) + erf(-x)).abs() < 1e-14, "erf not odd at {x}");
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for i in 0..60 {
            let x = -3.0 + 0.1 * i as f64;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_tail_avoids_cancellation() {
        // erfc(6) ~ 2.1519736712498913e-17: representable, and computed via
        // the continued fraction rather than 1 - erf.
        let v = erfc(6.0);
        assert!(v > 0.0);
        assert!((v / 2.151_973_671_249_891_3e-17 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_known_values() {
        assert_eq!(std_normal_cdf(0.0), 0.5);
        // Phi(1.96) ~ 0.975, the canonical two-sided 95% point.
        assert!((std_normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
        // Phi(2) ~ 0.97725: the "two standard deviations covers ~95%" rule.
        assert!((std_normal_cdf(2.0) - 0.977_249_868_051_820_8).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let x = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-12,
                "round-trip failed at p={p}: x={x}"
            );
        }
    }

    #[test]
    fn quantile_symmetry() {
        for i in 1..500 {
            let p = i as f64 / 1000.0;
            let lo = std_normal_quantile(p);
            let hi = std_normal_quantile(1.0 - p);
            assert!((lo + hi).abs() < 1e-10, "asymmetric at p={p}");
        }
    }

    #[test]
    fn quantile_tail_values() {
        // z_{0.975} = 1.959964..., z_{0.995} = 2.575829...
        assert!((std_normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-10);
        assert!((std_normal_quantile(0.995) - 2.575_829_303_548_901).abs() < 1e-10);
        assert!((std_normal_quantile(1e-6) + 4.753_424_308_822_899).abs() < 1e-8);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_zero() {
        std_normal_quantile(0.0);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_one() {
        std_normal_quantile(1.0);
    }

    #[test]
    #[should_panic]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Simple trapezoidal check over [-8, 8].
        let n = 4000;
        let (a, b) = (-8.0, 8.0);
        let h = (b - a) / n as f64;
        let mut sum = 0.5 * (std_normal_pdf(a) + std_normal_pdf(b));
        for i in 1..n {
            sum += std_normal_pdf(a + i as f64 * h);
        }
        assert!((sum * h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pdf_is_derivative_of_cdf() {
        for i in 0..30 {
            let x = -3.0 + 0.2 * i as f64;
            let h = 1e-6;
            let num = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2.0 * h);
            assert!((num - std_normal_pdf(x)).abs() < 1e-8, "at {x}");
        }
    }
}
