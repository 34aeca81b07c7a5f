"""Residual smoothing and misspecification flags."""

import tracemalloc

import numpy as np
import pytest

from ssls import diagnostics
from ssls.data import Dataset, GroupEffects
from ssls.diagnostics import _nw_smooth, flag_regions, flagged_fraction, residual_series
from ssls.errors import EmptyArm
from ssls.rng import Stream
from ssls.simulation import run_diagnostic_once


def make_effects(residuals, n):
    return GroupEffects(
        tau_hat=np.array([0.0]),
        sigma_gg_hat=np.array([1.0]),
        n_g=np.array([n]),
        n_effective=n,
        residuals=np.asarray(residuals, dtype=float),
        denominators=np.array([1.0]),
    )


def toy_dataset(n=50, seed=0):
    s = Stream(seed)
    x = np.sort(s.uniform(n))[:, None]
    a = np.tile([0.0, 1.0], n // 2)
    return Dataset(y=np.zeros(n), a=a, x=x)


def test_zero_residuals_zero_curve_and_no_flags():
    d = toy_dataset()
    ge = make_effects(np.zeros(d.n), d.n)
    series = residual_series(ge, d, bandwidth=0.1)
    for rs in series.values():
        support = np.isfinite(rs.smooth)
        assert np.allclose(rs.smooth[support], 0.0, atol=1e-14)
        assert flag_regions(rs) == []
        assert flagged_fraction(rs) == 0.0


def test_constant_residuals_constant_curve():
    d = toy_dataset()
    ge = make_effects(np.full(d.n, 3.25), d.n)
    series = residual_series(ge, d, bandwidth=0.07)
    for rs in series.values():
        support = np.isfinite(rs.smooth)
        assert support.any()
        # kernel weights sum to one, so a constant passes through exactly
        assert np.allclose(rs.smooth[support], 3.25, atol=1e-12)


def test_smoother_linear_in_residuals():
    d = toy_dataset(seed=1)
    base = Stream(2).normal(d.n)
    ge1 = make_effects(base, d.n)
    ge2 = make_effects(base + 1.7, d.n)
    s1 = residual_series(ge1, d, bandwidth=0.05)
    s2 = residual_series(ge2, d, bandwidth=0.05)
    for arm in (0, 1):
        a, b = s1[arm].smooth, s2[arm].smooth
        support = np.isfinite(a)
        assert np.allclose(b[support] - a[support], 1.7, atol=1e-10)


def test_tiny_bandwidth_local_consistency():
    # grid points coincide with the data: h -> 0 returns each residual
    n = 21
    x = np.linspace(0.0, 1.0, n)[:, None]
    a = np.tile([0.0, 1.0], 11)[:n]
    d = Dataset(y=np.zeros(n), a=a, x=x)
    resid = Stream(3).normal(n)
    ge = make_effects(resid, n)
    series = residual_series(ge, d, bandwidth=1e-6, grid_size=n)
    for arm, rs in series.items():
        members = np.flatnonzero(d.a == arm)
        for i in members:
            gi = int(np.argmin(np.abs(rs.grid - x[i, 0])))
            assert rs.smooth[gi] == pytest.approx(resid[i], abs=1e-9)


def test_empty_arm():
    d = Dataset(y=np.zeros(4), a=np.ones(4), x=np.linspace(0, 1, 4)[:, None])
    ge = make_effects(np.zeros(4), 4)
    with pytest.raises(EmptyArm):
        residual_series(ge, d)


def test_misspecified_grouping_off_centered():
    # the wrong grouping leaves treated/control residual trends of about
    # +/- a quarter of the effect step inside the straddled band
    run = run_diagnostic_once(n=10000, use_misspecified_m=True, seed=3)
    for rs in run.series.values():
        grid = rs.grid
        inner = np.abs(rs.smooth[(grid > 0.30) & (grid < 0.70)]).max()
        outer_mask = ((grid > 0.0) & (grid < 0.20)) | ((grid > 0.80) & (grid < 1.0))
        outer = np.abs(rs.smooth[outer_mask]).max()
        assert inner > 3.0 * outer
    assert any(
        lo < 0.75 and hi > 0.25
        for flags in run.flags.values()
        for lo, hi in flags
    )


def test_correct_grouping_clean():
    run = run_diagnostic_once(n=10000, use_misspecified_m=False, seed=3)
    for rs in run.series.values():
        assert flagged_fraction(rs) < 0.05


def test_flag_regions_are_maximal_intervals():
    d = toy_dataset(n=200, seed=4)
    resid = np.where(d.x[:, 0] > 0.5, 5.0, 0.0) + 0.01 * Stream(5).normal(d.n)
    ge = make_effects(resid, d.n)
    series = residual_series(ge, d, bandwidth=0.03)
    for rs in series.values():
        regions = flag_regions(rs, sd_multiplier=2.0)
        assert regions, "a five-sigma step must be flagged"
        for lo, hi in regions:
            assert lo <= hi
        # regions are disjoint and ordered
        for (a_lo, a_hi), (b_lo, b_hi) in zip(regions, regions[1:]):
            assert a_hi < b_lo


def _dense_nw_smooth(x, resid, grid, h):
    """The smoother before it was blocked over the grid, kept as its oracle:
    one grid x n weight matrix."""
    z = (grid[:, None] - x[None, :]) / h
    w = np.exp(-0.5 * z * z)
    total = w.sum(axis=1)
    has_support = total > 0.0
    smooth = np.full(grid.shape[0], np.nan)
    smooth[has_support] = (w[has_support] @ resid) / total[has_support]
    total_sq = (w * w).sum(axis=1)
    effective_n = np.zeros(grid.shape[0])
    effective_n[has_support] = total[has_support] ** 2 / total_sq[has_support]
    return smooth, effective_n


def _smoother_designs():
    """(x, residuals, arm, bandwidth, grid size) of the designs tested above."""
    for n, seed, h in [(50, 0, 0.1), (50, 0, 0.07), (50, 1, 0.05), (200, 4, 0.03)]:
        d = toy_dataset(n=n, seed=seed)
        yield d.x[:, 0], Stream(2).normal(n), d.a, h, 200
    x = np.linspace(0.0, 1.0, 21)
    yield x, Stream(3).normal(21), np.tile([0.0, 1.0], 11)[:21], 1e-6, 21
    for mis in (False, True):
        run = run_diagnostic_once(n=10000, use_misspecified_m=mis, seed=3,
                                  learner="oracle")
        yield run.dataset.x[:, 0], run.residuals, run.dataset.a, 0.05, 200


@pytest.mark.parametrize("block_bytes", [diagnostics._BLOCK_BYTES, 1])
def test_blocked_smoother_bit_identical_to_dense(monkeypatch, block_bytes):
    # A budget of 1 byte forces the smallest blocks, 8 grid points each.
    monkeypatch.setattr(diagnostics, "_BLOCK_BYTES", block_bytes)
    for x, resid, a, h, grid_size in _smoother_designs():
        for arm in (0, 1):
            xa, ra = x[a == arm], resid[a == arm]
            grid = np.linspace(x.min(), x.max(), grid_size)
            for got, want in zip(_nw_smooth(xa, ra, grid, h),
                                 _dense_nw_smooth(xa, ra, grid, h)):
                assert np.array_equal(got, want, equal_nan=True), (h, grid_size)
            # Other grid sizes agree to rounding: the last bits of the dense
            # product depend on how BLAS splits its rows between threads.
            for size in (1, 2, 7, 9, 17, 201):
                grid = np.linspace(x.min(), x.max(), size)
                got, want = _nw_smooth(xa, ra, grid, h), _dense_nw_smooth(xa, ra, grid, h)
                assert np.allclose(got[0], want[0], rtol=1e-12,
                                   atol=1e-12 * np.abs(ra).max(), equal_nan=True)
                assert np.allclose(got[1], want[1], rtol=1e-12, atol=0.0)


def test_smoother_memory_not_grid_by_n():
    # A dense 200 x n weight matrix per arm, and its square, would take
    # about 320 MB at this size.
    n = 100_000
    d = toy_dataset(n=n, seed=6)
    ge = make_effects(Stream(7).normal(n), n)
    tracemalloc.start()
    try:
        residual_series(ge, d, bandwidth=0.05, grid_size=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
