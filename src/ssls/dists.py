"""Normal and chi-square distribution functions used by the inference layer.

Each is built on the Python standard library:

- normal_cdf is 0.5 * erfc(-x / sqrt(2)) with math.erfc.
- normal_quantile is statistics.NormalDist().inv_cdf, Wichura's algorithm
  AS 241 (Applied Statistics, 1988).
- chisq_sf is the closed finite sum that integer degrees of freedom allow,
  chisq_cdf is 1 - chisq_sf, and chisq_quantile bisects chisq_cdf.

tests/test_dists.py holds them to 40-digit mpmath values: the normal CDF
to 1e-15 absolute on [-8, 8], the quantile to 1e-14 absolute for p from
1e-10 to 1 - 1e-10, and, for x up to 300 and df up to 101, the chi-square
CDF to 1e-12 absolute and its tail to 1e-12 relative. The values rest on
the platform's libm (erfc, exp, log, lgamma), so their last bits can
differ between platforms.
"""

from __future__ import annotations

import math
import numbers
import sys
from statistics import NormalDist

from .errors import DomainError

_STANDARD = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    if not math.isfinite(x):
        raise DomainError(f"normal_cdf requires finite x, got {x}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf; DomainError unless 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires p in (0, 1), got {p}")
    return _STANDARD.inv_cdf(p)


def _check_df(k) -> None:
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise DomainError(f"chi-square degrees of freedom must be a positive integer, got {k}")


def chisq_sf(x: float, k: int) -> float:
    """Upper tail P(X > x) of the chi-square with k degrees of freedom.

    With y = x/2, even k = 2m gives exp(-y) * sum_{j<m} y^j / j!, and odd
    k = 2m + 1 gives erfc(sqrt(y)) + exp(-y) * sum_{j<m} y^(j+1/2) / Gamma(j+3/2).
    Each term comes from the one before; a term below the normal double
    range is recomputed from logarithms instead, so that exp(-y)
    underflowing for large x does not lose the terms that follow. A sum
    that rounds above 1 is capped at 1.
    """
    _check_df(k)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"chi-square requires finite x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    y = 0.5 * x
    odd = k % 2
    s = 0.5 * odd
    total = math.erfc(math.sqrt(y)) if odd else 0.0
    term = math.exp(-y) * (2.0 * math.sqrt(y / math.pi) if odd else 1.0)
    for _ in range(k // 2):
        if term < sys.float_info.min:
            term = math.exp(s * math.log(y) - y - math.lgamma(s + 1.0))
        total += term
        s += 1.0
        term *= y / s
    return min(total, 1.0)


def chisq_cdf(x: float, k: int) -> float:
    """Chi-square CDF with k degrees of freedom."""
    return 1.0 - chisq_sf(x, k)


def chisq_quantile(p: float, k: int) -> float:
    """Inverse chi-square CDF by bracketed bisection."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"chisq_quantile requires p in (0, 1), got {p}")
    _check_df(k)
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
