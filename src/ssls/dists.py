"""Normal and chi-square distribution functions used by the inference layer.

Implemented in-repo so critical values are identical on every platform:
the normal CDF goes through an error-function series / continued-fraction
pair, the quantile uses a rational approximation polished by one Halley
step on the implemented CDF, and the chi-square CDF is the regularized
lower incomplete gamma.
"""

from __future__ import annotations

import math

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_EPS = 2.220446049250313e-16
_TINY = 1e-300


def _erf_series(z: float) -> float:
    # Maclaurin series; used for |z| <= 2 where cancellation stays benign.
    t = z
    total = z
    z2 = z * z
    n = 0
    while True:
        n += 1
        t *= -z2 / n
        term = t / (2 * n + 1)
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return 2.0 * _INV_SQRT_PI * total


def _erfc_cf(z: float) -> float:
    # erfc(z) = exp(-z^2)/sqrt(pi) / (z + (1/2)/(z + (2/2)/(z + (3/2)/(z + ...))))
    # evaluated with modified Lentz; used for z > 2.
    f = z
    c = z
    d = 0.0
    for i in range(1, 300):
        a = i / 2.0
        d = z + a * d
        if abs(d) < _TINY:
            d = _TINY
        c = z + a / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-z * z) * _INV_SQRT_PI / f


def erf(z: float) -> float:
    if z < 0:
        return -erf(-z)
    if z <= 2.0:
        return _erf_series(z)
    return 1.0 - _erfc_cf(z)


def erfc(z: float) -> float:
    if z < 0:
        return 2.0 - erfc(-z)
    if z <= 2.0:
        return 1.0 - _erf_series(z)
    return _erfc_cf(z)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to ~1e-15 absolute."""
    if not math.isfinite(x):
        raise DomainError(f"normal_cdf requires finite x, got {x}")
    if x >= 0:
        return 1.0 - 0.5 * erfc(x / _SQRT2)
    return 0.5 * erfc(-x / _SQRT2)


def normal_sf(x: float) -> float:
    """Upper tail P(Z > x); keeps relative accuracy deep in the tail."""
    return normal_cdf(-x)


# Acklam's rational approximation to the normal quantile (|error| < 1.15e-9),
# refined below by one Halley step on the implemented CDF.
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00)
_P_LOW = 0.02425


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf; DomainError unless 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires p in (0, 1), got {p}")
    x = _acklam(p)
    # One Halley refinement against the implemented CDF. Evaluate the CDF
    # error in whichever tail keeps cancellation small.
    if p >= 0.5:
        e = normal_sf(x) - (1.0 - p)
        u = -e / normal_pdf(x)
    else:
        e = normal_cdf(x) - p
        u = e / normal_pdf(x)
    return x - u / (1.0 + 0.5 * x * u)


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) by series, valid for x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(1000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a, x) by continued fraction (modified Lentz), valid for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if x < 0 or a <= 0:
        raise DomainError(f"gammainc_lower requires x >= 0 and a > 0, got a={a}, x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_cf(a, x)


def chisq_cdf(x: float, k: int) -> float:
    """Chi-square CDF with k degrees of freedom."""
    if k < 1:
        raise DomainError(f"chisq_cdf requires k >= 1, got {k}")
    if x < 0:
        raise DomainError(f"chisq_cdf requires x >= 0, got {x}")
    return gammainc_lower(0.5 * k, 0.5 * x)


def chisq_quantile(p: float, k: int) -> float:
    """Inverse chi-square CDF by bracketed bisection."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"chisq_quantile requires p in (0, 1), got {p}")
    lo, hi = 0.0, max(8.0 * k, 8.0)
    while chisq_cdf(hi, k) < p:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chisq_cdf(mid, k) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
