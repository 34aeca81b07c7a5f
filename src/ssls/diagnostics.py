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

    x: np.ndarray
    residuals: np.ndarray
    grid: np.ndarray
    smooth: np.ndarray
    effective_n: np.ndarray


# Linear binning splits each observation between its two nearest bin
# centres; at 50 bins per bandwidth the kernel sums then match the exact ones
# to about 1e-4 relative (Fan & Marron, JCGS 1994). The bin count is capped
# whatever the bandwidth, so below 50 * span / _MAX_BINS the bins are coarser.
_BINS_PER_BANDWIDTH = 50
_MAX_BINS = 1 << 16
_REACH = 38.61  # exp(-z*z/2) underflows to zero beyond this many bandwidths
_FAR = 1e-100  # below this kernel total, squares are taken relative to the top weight


def _nw_smooth(xs, resids, lo: float, hi: float, grid_size: int, h: float):
    """Binned Nadaraya-Watson smooth of each arm's residuals on
    linspace(lo, hi, grid_size), with (sum w)^2 / sum w^2 as each grid
    point's kernel-effective sample size.

    Every grid point is a bin centre, so a bin's weight depends only on its
    offset: exp is taken once per offset, and each grid point sums the band
    of bins whose weight does not underflow. A grid point with no binned mass
    in reach is NaN (no local support).
    """
    span = hi - lo
    intervals = max(grid_size - 1, 1)
    step = max(1, int(min(np.ceil(_BINS_PER_BANDWIDTH * span / intervals / h),
                          (_MAX_BINS - 1) // intervals)))
    width = span / (intervals * step) if span > 0 else h / _BINS_PER_BANDWIDTH
    n_bins = intervals * step + 2  # a spare bin past hi for linear binning
    reach = min(n_bins - 1, int(_REACH * h / width))
    z2 = (np.arange(-reach, reach + 1) * width / h) ** 2
    taps = np.exp(-0.5 * z2)
    # Rows 2a and 2a + 1 hold arm a's binned counts and residual sums.
    binned = np.zeros((2 * len(xs), n_bins + 2 * reach))
    for a, (x, resid) in enumerate(zip(xs, resids)):
        pos = (x - lo) / width
        left = pos.astype(np.intp)
        frac = pos - left
        for row, mass in ((2 * a, 1.0), (2 * a + 1, resid)):
            binned[row, reach:reach + n_bins] = (np.bincount(left, mass * (1.0 - frac), n_bins)
                                                 + np.bincount(left + 1, mass * frac, n_bins))
    windows = np.lib.stride_tricks.sliding_window_view(binned, taps.size, axis=1)
    windows = (windows[:, ::step][:, :grid_size] if span > 0
               else np.broadcast_to(windows[:, :1], (len(binned), grid_size, taps.size)))
    sums, total_sq = windows @ taps, windows[0::2] @ (taps * taps)
    out = []
    for a in range(len(xs)):
        total, weighted = sums[2 * a], sums[2 * a + 1]
        near = total >= _FAR
        smooth, effective_n = np.full(grid_size, np.nan), np.zeros(grid_size)
        smooth[near] = weighted[near] / total[near]
        effective_n[near] = total[near] ** 2 / total_sq[a, near]
        for i in np.flatnonzero((total > 0.0) & ~near):
            counts, resid_sums = windows[2 * a, i], windows[2 * a + 1, i]
            top = z2[counts > 0].min()
            u = np.where(taps > 0, np.exp(-0.5 * np.maximum(z2 - top, 0.0)), 0.0)
            smooth[i] = resid_sums @ u / (counts @ u)
            effective_n[i] = (counts @ u) ** 2 / (counts @ (u * u))
        out.append((smooth, effective_n))
    return out


def check_covariate_index(covariate_index: int, n_covariates: int) -> None:
    """DomainError unless covariate_index names one of n_covariates columns."""
    if not 0 <= covariate_index < n_covariates:
        raise DomainError(f"covariate index {covariate_index} out of range")


def check_smoother(bandwidth: float | None, grid_size: int) -> None:
    """DomainError unless the bandwidth is finite and positive (None: still
    to be chosen from the data) and the grid has 1 to _MAX_BINS points, each
    of which is a bin centre."""
    if bandwidth is not None and not (np.isfinite(bandwidth) and bandwidth > 0):
        raise DomainError(f"bandwidth must be finite and positive, got {bandwidth}")
    if grid_size < 1:
        raise DomainError(f"grid size must be at least 1, got {grid_size}")
    if grid_size > _MAX_BINS:
        raise DomainError(f"grid size must be at most {_MAX_BINS}, got {grid_size}")


def check_sd_multiplier(sd_multiplier: float) -> None:
    """DomainError unless the flagging band's multiplier is finite and
    non-negative."""
    if not (np.isfinite(sd_multiplier) and sd_multiplier >= 0):
        raise DomainError(f"sd multiplier must be finite and non-negative, got {sd_multiplier}")


def covariate_column(d: Dataset, covariate_index: int) -> np.ndarray:
    """Column covariate_index of d.x; a DomainError if there is none."""
    check_covariate_index(covariate_index, d.x.shape[1])
    return d.x[:, covariate_index]


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
    check_smoother(bandwidth, grid_size)
    xcol = covariate_column(d, covariate_index)
    if ge.residuals.shape[0] != d.n:
        raise DomainError("residuals and dataset lengths disagree")
    members = [np.flatnonzero(d.a == arm) for arm in (0, 1)]
    for arm, idx in enumerate(members):
        if idx.size == 0:
            raise EmptyArm(arm)
    xs = [xcol[idx] for idx in members]
    resids = [ge.residuals[idx] for idx in members]
    lo, hi = float(xcol.min()), float(xcol.max())
    grid = np.linspace(lo, hi, grid_size)
    smoothed = _nw_smooth(xs, resids, lo, hi, grid_size, bandwidth)
    return {arm: ResidualSeries(xs[arm], resids[arm], grid, *smoothed[arm])
            for arm in (0, 1)}


def _exceeds_band(rs: ResidualSeries, sd_multiplier: float) -> np.ndarray:
    """Grid points where the smoothed mean leaves the noise band
    sd_multiplier * (residual SD) / sqrt(kernel-effective local sample size);
    points without local support never exceed it."""
    check_sd_multiplier(sd_multiplier)
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
