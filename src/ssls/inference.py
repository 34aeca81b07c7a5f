"""Hypothesis tests and confidence intervals on groupwise effect estimates.

Pointwise t-tests, simultaneous intervals from the max of independent
normals (Sidak/maxT), a chi-square general linear hypothesis test with
per-row z-tests (a pairwise two-group contrast is its one-row case), and
the standardized-effect sample-size rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import GroupEffects
from .dists import chisq_quantile, chisq_sf, normal_cdf, normal_quantile
from .errors import DomainError, ZeroVarianceContrast, ZeroVarianceGroup


def check_alpha(alpha: float) -> None:
    """DomainError unless the level alpha lies in (0, 1) and is large enough
    that 1 - alpha/2 is below 1 in floating point, where z_{1-alpha/2} exists."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise DomainError(f"alpha {alpha} is too small: 1 - alpha/2 rounds to 1, "
                          "so its normal quantile cannot be computed")


def maxt_critical(alpha: float, n_comparisons: int) -> float:
    """Two-sided critical value for the max of independent standard normals.

    q = z at level 1 - (1 - (1-alpha)^(1/G)) / 2; reduces to z_{1-alpha/2}
    at G = 1 and grows slowly with the number of comparisons. A DomainError
    names alpha and G when that level rounds to 1, so q cannot be computed.
    """
    check_alpha(alpha)
    if n_comparisons < 1:
        raise DomainError(f"need at least one comparison, got {n_comparisons}")
    per_test = 1.0 - (1.0 - alpha) ** (1.0 / n_comparisons)
    if 1.0 - per_test / 2.0 == 1.0:
        raise DomainError(f"alpha {alpha} with G = {n_comparisons} comparisons is too "
                          "small: the per-test level rounds away, so its normal "
                          "quantile cannot be computed")
    return normal_quantile(1.0 - per_test / 2.0)


@dataclass(frozen=True)
class InferenceReport:
    """Per-group test results on effects; simultaneous intervals always
    contain the pointwise ones because q_crit >= z_crit."""

    effects: GroupEffects
    se: np.ndarray
    tau0: np.ndarray
    t_stat: np.ndarray
    p_value: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    ci_simul_lo: np.ndarray
    ci_simul_hi: np.ndarray
    reject_pointwise: np.ndarray
    reject_simul: np.ndarray
    alpha: float
    z_crit: float
    q_crit: float

    @cached_property
    def table(self) -> dict:
        """The per-group table, one column per name, as groups.csv writes it
        and report.json's effects.groups holds it row by row."""
        ge = self.effects
        return {"g": np.arange(1, ge.n_groups + 1), "n_g": ge.n_g.astype(np.int64),
                "tau_hat": ge.tau_hat, "se": self.se, "sigma_gg_hat": ge.sigma_gg_hat,
                "tau0": self.tau0, "t_stat": self.t_stat, "p_value": self.p_value,
                "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
                "ci_simul_lo": self.ci_simul_lo, "ci_simul_hi": self.ci_simul_hi,
                "reject_pointwise": self.reject_pointwise,
                "reject_simultaneous": self.reject_simul}


def check_variances(effects: GroupEffects) -> GroupEffects:
    """effects, or ZeroVarianceGroup naming the first group whose
    sigma_gg_hat is not positive and finite, so that no interval or test
    exists for it. estimate_ssls returns the closed form, with a variance
    that is rounding at the outcome's scale set to zero; repeated_ssls, and
    simultaneous_cis itself, check it here."""
    for g, sigma in enumerate(effects.sigma_gg_hat.tolist(), start=1):
        if not 0.0 < sigma < math.inf:
            raise ZeroVarianceGroup(g, sigma)
    return effects


def simultaneous_cis(ge: GroupEffects, alpha: float = 0.05, tau0=None) -> InferenceReport:
    """Per-group t-tests of tau_g = tau0_g (tau0 defaults to zero) with
    two-sided normal p-values, pointwise intervals at z_crit, and
    simultaneous intervals at q_crit, which control the familywise error
    rate at alpha. ZeroVarianceGroup names a group with no standard error."""
    q = maxt_critical(alpha, ge.n_groups)
    z = normal_quantile(1.0 - alpha / 2.0)
    tau0 = np.zeros(ge.n_groups) if tau0 is None else np.asarray(tau0, dtype=np.float64)
    if tau0.shape != (ge.n_groups,):
        raise DomainError(f"tau0 must have length {ge.n_groups}")
    se = check_variances(ge).se()
    t_stat = (ge.tau_hat - tau0) / se
    p_value = np.array([2.0 * normal_cdf(-abs(t)) for t in t_stat])
    return InferenceReport(
        effects=ge,
        se=se,
        tau0=tau0,
        t_stat=t_stat,
        p_value=p_value,
        ci_lo=ge.tau_hat - z * se,
        ci_hi=ge.tau_hat + z * se,
        ci_simul_lo=ge.tau_hat - q * se,
        ci_simul_hi=ge.tau_hat + q * se,
        reject_pointwise=np.abs(t_stat) > z,
        reject_simul=np.abs(t_stat) > q,
        alpha=alpha,
        z_crit=z,
        q_crit=q,
    )


@dataclass(frozen=True)
class Contrast:
    """General linear hypothesis K tau = m0."""

    K: np.ndarray
    m0: np.ndarray

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=np.float64))
        m0 = np.atleast_1d(np.asarray(self.m0, dtype=np.float64))
        if K.shape[0] != m0.shape[0]:
            raise DomainError("K and m0 must have the same number of rows")
        if K.shape[0] < 1:
            raise DomainError("contrast needs at least one row")
        if np.any(np.all(K == 0.0, axis=1)):
            raise DomainError("contrast rows must be non-zero")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "m0", m0)

    @staticmethod
    def pairwise_differences(n_groups: int) -> "Contrast":
        rows = []
        for g1 in range(n_groups):
            for g2 in range(g1 + 1, n_groups):
                row = np.zeros(n_groups)
                row[g1] = 1.0
                row[g2] = -1.0
                rows.append(row)
        return Contrast(np.asarray(rows), np.zeros(len(rows)))


@dataclass(frozen=True)
class GlhResult:
    """The joint chi-square test of K tau = m0 and, per row of K, its z
    statistic, two-sided normal p-value and maxT flag |z| > q_crit."""

    statistic: float
    rank: int
    p_value: float
    critical_value: float
    reject: bool
    z: np.ndarray
    row_p_values: np.ndarray
    q_crit: float
    row_reject: np.ndarray


def glh_test(ge: GroupEffects, contrast: Contrast, alpha: float = 0.05) -> GlhResult:
    """Chi-square test of K tau = m0 on the standardized contrast scale,
    and a z-test of each row.

    The contrast covariance is diagonally standardized; a rank-deficient
    standardized covariance is inverted by eigendecomposition pseudo-inverse
    with rank counted as eigenvalues above 1e-10 of the largest. Row j's z
    is its standardized K tau - m0, so a one-row contrast has statistic z^2,
    the one-degree-of-freedom chi-square. The row flags use the maxT
    critical value for as many rows as K has. maxT assumes independent
    rows; for correlated rows, such as all pairwise differences, it is
    conservative (Sidak, JASA 1967).
    """
    if contrast.K.shape[1] != ge.n_groups:
        raise DomainError(
            f"contrast has {contrast.K.shape[1]} columns for {ge.n_groups} groups"
        )
    q = maxt_critical(alpha, contrast.K.shape[0])
    sigma = np.diag(ge.sigma_gg_hat)
    ksk = contrast.K @ sigma @ contrast.K.T
    diag = np.diag(ksk).copy()
    if np.any(diag <= 0.0):
        raise ZeroVarianceContrast(
            "a contrast row has zero estimated variance; it cannot be standardized"
        )
    d_inv_half = 1.0 / np.sqrt(diag)
    q_vec = math.sqrt(ge.n_effective) * d_inv_half * (
        contrast.K @ ge.tau_hat - contrast.m0
    )
    corr = d_inv_half[:, None] * ksk * d_inv_half[None, :]
    eigvals, eigvecs = np.linalg.eigh(0.5 * (corr + corr.T))
    keep = eigvals > 1e-10 * eigvals.max()
    rank = int(keep.sum())
    if rank == 0:
        raise ZeroVarianceContrast("standardized contrast covariance has rank zero")
    inv_vals = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    stat = float(q_vec @ (eigvecs @ (inv_vals * (eigvecs.T @ q_vec))))
    # n_effective already entered through q_vec; sigma_gg_hat is pre-division
    # by n, so the scaling is sqrt(n) * (K tau - m0) / sd-scale as displayed.
    p_value = chisq_sf(stat, rank)
    critical = chisq_quantile(1.0 - alpha, rank)
    return GlhResult(
        statistic=stat,
        rank=rank,
        p_value=p_value,
        critical_value=critical,
        reject=stat > critical,
        z=q_vec,
        row_p_values=np.array([2.0 * normal_cdf(-abs(z)) for z in q_vec]),
        q_crit=q,
        row_reject=np.abs(q_vec) > q,
    )


def power_min_n(z_tilde: float, alpha: float = 0.05, power: float = 0.8) -> int:
    """Smallest group size giving the target power for a standardized effect.

    n = ceil((z_power + z_{1-alpha/2})^2 / z_tilde^2); for example
    z_tilde = 1 needs 8 observations and z_tilde = 0.1 needs 785.
    """
    if not z_tilde > 0:
        raise DomainError(f"z_tilde must be positive, got {z_tilde}")
    check_alpha(alpha)
    if not 0.0 < power < 1.0:
        raise DomainError(f"power must lie in (0, 1), got {power}")
    z_sum = normal_quantile(power) + normal_quantile(1.0 - alpha / 2.0)
    return math.ceil((z_sum / z_tilde) ** 2)
