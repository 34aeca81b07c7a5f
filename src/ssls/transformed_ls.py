"""Least squares on cross-fitted transformed variables, with sandwich variance.

This is the generic engine behind the groupwise estimator: given an
out-of-fold transformed outcome z_hat and transformed regressors v_hat, it
solves the normal equations and forms the heteroskedasticity-robust plug-in
covariance gram^-1 (mean of resid^2 v v^T) gram^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSPD, SingularGram


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


def linear_solve_spd(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b for symmetric positive definite m; NotSPD unless m is
    symmetric and its Cholesky factorisation exists."""
    m = np.asarray(m, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSPD(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > 1e-8 * scale:
        raise NotSPD("matrix is not symmetric")
    m = 0.5 * (m + m.T)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotSPD("matrix is not positive definite") from None
    return np.linalg.solve(m, b)


def solve_transformed_ls(t: TransformedSample) -> LsEstimate:
    """Normal-equation solve plus plug-in sandwich covariance.

    Singularity of the Gram matrix is judged on a relative scale
    (smallest eigenvalue vs. trace/d); a single jitter of 1e-12 * trace is
    attempted before giving up with SingularGram.
    """
    n, d = t.v_hat.shape
    gram = t.v_hat.T @ t.v_hat / n
    gram = 0.5 * (gram + gram.T)
    trace = np.trace(gram)
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= 1e-10 * trace / d:
        raise SingularGram(
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
