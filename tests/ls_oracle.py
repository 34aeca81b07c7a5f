"""The generic transformed-variable least-squares engine, kept as the
oracle the groupwise closed form is checked against (criterion 06).

Given an out-of-fold transformed outcome z_hat and transformed regressors
v_hat, it solves the normal equations and forms the heteroskedasticity-robust
plug-in covariance gram^-1 (mean of resid^2 v v^T) gram^-1.
"""

from dataclasses import dataclass

import numpy as np

from ssls.errors import NotSPD, SingularDesign
from ssls.learners import linear_solve_spd


@dataclass(frozen=True)
class TransformedSample:
    """Out-of-fold transformed outcome and regressors."""

    z_hat: np.ndarray
    v_hat: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z_hat, dtype=np.float64)
        v = np.asarray(self.v_hat, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "z_hat", z)
        object.__setattr__(self, "v_hat", v)

    @property
    def n(self) -> int:
        return self.z_hat.shape[0]


@dataclass(frozen=True)
class LsEstimate:
    beta_hat: np.ndarray
    sigma_hat: np.ndarray
    gram: np.ndarray
    residuals: np.ndarray


def solve_transformed_ls(t: TransformedSample) -> LsEstimate:
    """Normal-equation solve plus plug-in sandwich covariance.

    Singularity of the Gram matrix is judged on a relative scale
    (smallest eigenvalue vs. trace/d); a single jitter of 1e-12 * trace is
    attempted before giving up with SingularDesign.
    """
    n, d = t.v_hat.shape
    gram = t.v_hat.T @ t.v_hat / n
    gram = 0.5 * (gram + gram.T)
    trace = np.trace(gram)
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= 1e-10 * trace / d:
        raise SingularDesign(
            f"gram matrix numerically singular (min eig {eigvals[0]:.3e}, "
            f"trace {trace:.3e})"
        )
    rhs = t.v_hat.T @ t.z_hat / n
    try:
        beta = linear_solve_spd(gram, rhs)
        solve_gram = gram
    except NotSPD:
        # well-conditioned by the eigenvalue gate; retry once with jitter
        solve_gram = gram + (1e-12 * trace) * np.eye(d)
        beta = linear_solve_spd(solve_gram, rhs)
    residuals = t.z_hat - t.v_hat @ beta
    meat = (t.v_hat * residuals[:, None] ** 2).T @ t.v_hat / n
    half = linear_solve_spd(solve_gram, meat)
    sigma = linear_solve_spd(solve_gram, half.T).T
    sigma = 0.5 * (sigma + sigma.T)
    return LsEstimate(beta_hat=beta, sigma_hat=sigma, gram=gram, residuals=residuals)


def indicator(g) -> np.ndarray:
    """The N x G 0/1 membership matrix of grouping g."""
    out = np.zeros((g.n, g.n_groups))
    out[np.arange(g.n), g.labels - 1] = 1.0
    return out


def transformed_sample_from_nuisance(d, g, nf) -> TransformedSample:
    """Robinson-transformed variables for the generic LS engine."""
    v_hat = (d.a - nf.e_hat)[:, None] * indicator(g)
    return TransformedSample(z_hat=d.y - nf.m_hat, v_hat=v_hat)
