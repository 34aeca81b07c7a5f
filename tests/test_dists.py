"""Distribution functions against independent high-precision oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from ssls.dists import (
    chisq_cdf,
    chisq_quantile,
    chisq_sf,
    normal_cdf,
    normal_quantile,
)
from ssls.errors import DomainError

mp.mp.dps = 40


def erf_series_oracle(z: float) -> float:
    """Maclaurin erf series at 40 digits; independent of the implementation."""
    return float(mp.erf(mp.mpf(z)))


def quantile_oracle(p: float) -> float:
    """Bisection on the CDF oracle."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(mp.ncdf(mid)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_cdf_examples():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-7)
    assert normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-7)


def test_normal_cdf_against_erf_oracle():
    for x in np.linspace(-8, 8, 161):
        ref = 0.5 * (1.0 + erf_series_oracle(x / math.sqrt(2.0)))
        assert abs(normal_cdf(float(x)) - ref) <= 1e-12
    for x in np.linspace(-8, 8, 1601):
        assert abs(normal_cdf(float(x)) - float(mp.ncdf(mp.mpf(float(x))))) <= 1e-15


def test_erf_erfc_against_oracle():
    # erf and erfc through the one-df chi-square: with x = 2 z^2,
    # chisq_cdf(x, 1) = erf(|z|) and chisq_sf(x, 1) = erfc(|z|)
    for z in np.linspace(-6, 6, 121):
        x = 2.0 * float(z) ** 2
        w = mp.sqrt(mp.mpf(x) / 2)
        assert abs(chisq_cdf(x, 1) - float(mp.erf(w))) <= 1e-13
        assert abs(chisq_sf(x, 1) - float(mp.erfc(w))) <= 1e-13


def test_normal_cdf_reflection_and_monotone():
    xs = np.linspace(-6, 6, 200)
    vals = [normal_cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x in (0.3, 1.7, 4.2):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-14)


def test_normal_quantile_examples():
    assert normal_quantile(0.5) == 0.0
    # values derived once from the bisection oracle
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.8) == pytest.approx(0.841621, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(quantile_oracle(0.975), abs=1e-9)
    assert normal_quantile(0.8) == pytest.approx(quantile_oracle(0.8), abs=1e-9)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            normal_quantile(bad)


def test_normal_quantile_against_exact_root():
    ps = [1e-10, 1e-8, 1e-6, 1e-4, 0.02425, 0.975, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10]
    for p in ps + [float(p) for p in np.linspace(0.001, 0.999, 999)]:
        ref = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))
        assert abs(normal_quantile(p) - ref) <= 1e-14


def test_quantile_roundtrip_grid():
    for p in np.arange(0.001, 0.9995, 0.001):
        z = normal_quantile(float(p))
        assert abs(normal_cdf(z) - p) <= 1e-8


def test_quantile_type_invariant():
    assert abs(normal_quantile(0.975) - quantile_oracle(0.975)) <= 1e-9


def test_chisq_examples():
    assert chisq_cdf(0.0, 1) == 0.0
    assert chisq_cdf(0.0, 7) == 0.0
    # chi-square with 2 df is Exp(rate 1/2): median is 2 ln 2
    assert chisq_cdf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)
    # square of the normal quantile 1.959964
    assert chisq_cdf(3.841459, 1) == pytest.approx(0.95, abs=1e-7)


def test_chisq_against_gamma_oracle():
    for k in (1, 2, 3, 5, 10, 45):
        for x in (0.01, 0.3, 1.0, 2.5, 7.0, 20.0, 80.0):
            ref = float(mp.gammainc(mp.mpf(k) / 2, 0, mp.mpf(x) / 2, regularized=True))
            assert abs(chisq_cdf(x, k) - ref) <= 1e-10


def test_chisq_against_gamma_oracle_to_300():
    xs = [1e-8, 0.01, 0.3, 1.0, 2.5, 7.0, 35.0] + [float(x) for x in np.linspace(5, 300, 60)]
    for k in (1, 2, 3, 4, 5, 6, 7, 10, 45, 101):
        for x in xs:
            half_k, half_x = mp.mpf(k) / 2, mp.mpf(x) / 2
            lower = float(mp.gammainc(half_k, 0, half_x, regularized=True))
            upper = mp.gammainc(half_k, half_x, mp.inf, regularized=True)
            assert abs(chisq_cdf(x, k) - lower) <= 1e-12
            # the tail keeps its relative accuracy where the CDF rounds to 1
            assert abs(chisq_sf(x, k) - float(upper)) <= 1e-12 * float(upper)


def test_chisq_sf_past_exp_underflow():
    # exp(-x/2) is subnormal past x = 1416 and zero past 1490; the terms
    # near the Poisson mode still count when the df are as large as x
    for k, x in ((2000, 2000.0), (2001, 1800.0), (20, 1420.0)):
        ref = mp.gammainc(mp.mpf(k) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)
        assert abs(chisq_sf(x, k) - float(ref)) <= 1e-12 * float(ref)
    assert chisq_sf(1e300, 3) == 0.0
    assert chisq_cdf(1500.0, 2000) >= 0.0


def test_chisq_monotone_and_range():
    for k in (1, 4, 9):
        xs = np.linspace(0.0, 60.0, 200)
        vals = [chisq_cdf(float(x), k) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 1.0 for v in vals)


def test_chisq_normal_identity():
    for z in np.linspace(-5, 5, 41):
        lhs = chisq_cdf(float(z) ** 2, 1)
        rhs = 2.0 * normal_cdf(abs(float(z))) - 1.0
        assert abs(lhs - rhs) <= 1e-8


def test_chisq_domain():
    with pytest.raises(DomainError):
        chisq_cdf(-0.1, 2)
    with pytest.raises(DomainError):
        chisq_sf(1.0, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            chisq_sf(bad, 2)


@pytest.mark.parametrize("k", [0, -1, 2.5, 0.5])
def test_chisq_df_must_be_a_positive_integer(k):
    for call in (lambda: chisq_cdf(1.0, k), lambda: chisq_sf(1.0, k),
                 lambda: chisq_quantile(0.5, k)):
        with pytest.raises(DomainError, match="degrees of freedom"):
            call()


def test_chisq_quantile_roundtrip():
    for k in (1, 3, 6):
        for p in (0.05, 0.5, 0.95, 0.99):
            assert chisq_cdf(chisq_quantile(p, k), k) == pytest.approx(p, abs=1e-9)
