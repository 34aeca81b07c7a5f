"""Residual-based misspecification diagnostics.

If the grouping is right and the nuisances fit well, the estimation
residuals are mean-zero given the covariates within each arm. Smoothing the
residuals against a covariate makes systematic departures visible; the
flagging rule turns the visual check into intervals where the smoothed mean
leaves a pointwise noise band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, GroupEffects
from .errors import DomainError, EmptyArm


@dataclass(frozen=True)
class ResidualSeries:
    """Residuals of one treatment arm against one covariate, with a
    Nadaraya-Watson (Gaussian kernel) smooth on an equispaced grid."""

    arm: int
    covariate_index: int
    x: np.ndarray
    residuals: np.ndarray
    grid: np.ndarray
    smooth: np.ndarray
    effective_n: np.ndarray
    bandwidth: float


# Kernel weights are built a block of grid points at a time, all of them at
# once when their matrix fits in _BLOCK_BYTES, so peak memory is bounded by
# max(_BLOCK_BYTES, 64 n) bytes rather than growing as grid x n. Blocks of a
# multiple of 8 rows keep BLAS on the matrix-vector kernel of one dense
# product, so the sums match it exactly.
_BLOCK_BYTES = 8 << 20


def _nw_smooth(x: np.ndarray, resid: np.ndarray, grid: np.ndarray, h: float):
    # Weights underflow to zero far outside the data; those grid points are
    # reported as NaN (no local support).
    m = grid.shape[0]
    rows = max(8, _BLOCK_BYTES // (8 * x.size) // 8 * 8)
    total, weighted, total_sq = np.empty((3, m))
    start = 0
    # A lone last row would take BLAS's vector-vector path; the last block takes it.
    for stop in [*range(rows, m - 1, rows), m]:
        z = (grid[start:stop, None] - x[None, :]) / h
        w = np.exp(-0.5 * z * z)
        total[start:stop] = w.sum(axis=1)
        weighted[start:stop] = w @ resid
        total_sq[start:stop] = (w * w).sum(axis=1)
        start = stop
    has_support = total > 0.0
    smooth = np.full(m, np.nan)
    smooth[has_support] = weighted[has_support] / total[has_support]
    effective_n = np.zeros(m)
    effective_n[has_support] = total[has_support] ** 2 / total_sq[has_support]
    return smooth, effective_n


def residual_series(
    ge: GroupEffects,
    d: Dataset,
    covariate_index: int = 0,
    bandwidth: float = 0.05,
    grid_size: int = 200,
) -> dict[int, ResidualSeries]:
    """Per-arm smoothed residual series against one covariate.

    The grid spans the covariate's observed (pooled) range so the two arms
    are directly comparable.
    """
    if bandwidth <= 0:
        raise DomainError("bandwidth must be positive")
    if not 0 <= covariate_index < d.x.shape[1]:
        raise DomainError(f"covariate index {covariate_index} out of range")
    if ge.residuals.shape[0] != d.n:
        raise DomainError("residuals and dataset lengths disagree")
    xcol = d.x[:, covariate_index]
    grid = np.linspace(xcol.min(), xcol.max(), grid_size)
    out = {}
    for arm in (0, 1):
        idx = np.flatnonzero(d.a == arm)
        if idx.size == 0:
            raise EmptyArm(arm)
        smooth, eff_n = _nw_smooth(xcol[idx], ge.residuals[idx], grid, bandwidth)
        out[arm] = ResidualSeries(
            arm=arm,
            covariate_index=covariate_index,
            x=xcol[idx],
            residuals=ge.residuals[idx],
            grid=grid,
            smooth=smooth,
            effective_n=eff_n,
            bandwidth=bandwidth,
        )
    return out


def _exceeds_band(rs: ResidualSeries, sd_multiplier: float) -> np.ndarray:
    """Grid points where the smoothed mean leaves the noise band
    sd_multiplier * (residual SD) / sqrt(kernel-effective local sample size);
    points without local support never exceed it."""
    sd = float(np.std(rs.residuals))
    with np.errstate(divide="ignore", invalid="ignore"):
        band = sd_multiplier * sd / np.sqrt(rs.effective_n)
    return (np.abs(rs.smooth) > band) & np.isfinite(rs.smooth)


def flag_regions(rs: ResidualSeries, sd_multiplier: float = 8.0) -> list[tuple[float, float]]:
    """Maximal grid intervals where the smoothed mean leaves the noise band.

    An empty list means the mean-zero restriction looks fine everywhere.
    """
    exceed = _exceeds_band(rs, sd_multiplier)
    regions = []
    start = None
    for i, flag in enumerate(exceed):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            regions.append((float(rs.grid[start]), float(rs.grid[i - 1])))
            start = None
    if start is not None:
        regions.append((float(rs.grid[start]), float(rs.grid[-1])))
    return regions


def flagged_fraction(rs: ResidualSeries, sd_multiplier: float = 8.0) -> float:
    """Fraction of grid points inside flagged regions."""
    return float(_exceeds_band(rs, sd_multiplier).mean())
