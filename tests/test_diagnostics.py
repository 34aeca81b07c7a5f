"""Residual smoothing and misspecification flags."""

import tracemalloc

import numpy as np
import pytest

from ssls import estimator
from ssls.cli import main
from ssls.data import CrossFitPlan, Dataset, GroupEffects
from ssls.diagnostics import flag_regions, flagged_fraction, residual_series
from ssls.errors import DomainError, EmptyArm
from ssls.estimator import SslsConfig, single_run
from ssls.learners import LogisticSpec, OlsSpec
from ssls.rng import Stream
from ssls.simulation import run_diagnostic_once, run_diagnostic_study


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
    run = run_diagnostic_once(n=10000, seed=3)["misspecified"]
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
    run = run_diagnostic_once(n=10000, seed=3)["correct"]
    for rs in run.series.values():
        assert flagged_fraction(rs) < 0.05


def test_each_diagnostic_draw_is_cross_fitted_once(monkeypatch, tmp_path):
    calls = []
    crossfit = estimator.crossfit_nuisance
    monkeypatch.setattr(estimator, "crossfit_nuisance",
                        lambda *a, **kw: calls.append(1) or crossfit(*a, **kw))
    runs = run_diagnostic_once(n=2000, seed=5, learner="ols-logistic")
    assert list(runs) == ["correct", "misspecified"]
    assert len(calls) == 1
    run_diagnostic_study(reps=2, n=2000, learner="ols-logistic")
    assert len(calls) == 3
    argv = ["simulate", "--study", "diagnostic", "--n", "2000", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 4


def test_shared_nuisances_equal_a_separate_fit_per_grouping():
    # the folds are unstratified, so they do not depend on the grouping, and
    # the misspecified run is what its own cross-fit would give
    runs = run_diagnostic_once(n=2000, seed=5, learner="ols-logistic")
    seed = Stream(5).child("diag-study").child("plan").key
    cfg = SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan(n_folds=2))
    for run in runs.values():
        ge, _ = single_run(run.dataset, run.grouping, cfg, seed=seed)
        assert np.array_equal(ge.residuals, run.residuals)


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
    """The exact smoother, kept as the binned one's oracle: one grid x n
    weight matrix. A grid point has support where some weight does not
    underflow; there the sums are taken relative to its largest weight."""
    z2 = ((grid[:, None] - x[None, :]) / h) ** 2
    w = np.exp(-0.5 * z2)
    has_support = (w > 0.0).any(axis=1)
    u = np.where(w > 0.0, np.exp(-0.5 * (z2 - z2.min(axis=1, keepdims=True))), 0.0)
    total = u.sum(axis=1)
    smooth = np.full(grid.shape[0], np.nan)
    smooth[has_support] = (u[has_support] @ resid) / total[has_support]
    effective_n = np.zeros(grid.shape[0])
    effective_n[has_support] = total[has_support] ** 2 / (u[has_support] ** 2).sum(axis=1)
    return smooth, effective_n


def _smoother_designs():
    """(x, residuals, arm, bandwidth) of the designs tested above."""
    for n, seed, h in [(50, 0, 0.1), (50, 0, 0.07), (50, 1, 0.05), (200, 4, 0.03)]:
        d = toy_dataset(n=n, seed=seed)
        yield d.x[:, 0], Stream(2).normal(n), d.a, h
    x = np.linspace(0.0, 1.0, 21)
    yield x, Stream(3).normal(21), np.tile([0.0, 1.0], 11)[:21], 1e-6
    for run in run_diagnostic_once(n=10000, seed=3, learner="oracle").values():
        yield run.dataset.x[:, 0], run.residuals, run.dataset.a, 0.05


def test_binned_smoother_matches_dense_oracle():
    # Linear binning at 50 bins per bandwidth moves each weight by O(1/50^2)
    # relative. The worst cases here are 1.5e-5 * max|r| in the smooth and
    # 7.8e-5 relative in effective_n.
    for x, resid, a, h in _smoother_designs():
        d = Dataset(y=np.zeros(x.size), a=a, x=x[:, None])
        ge = make_effects(resid, x.size)
        for size in (1, 2, 7, 9, 17, 200, 201):
            for rs in residual_series(ge, d, bandwidth=h, grid_size=size).values():
                smooth, eff_n = _dense_nw_smooth(rs.x, rs.residuals, rs.grid, h)
                support = np.isfinite(smooth)
                assert np.array_equal(np.isfinite(rs.smooth), support), (h, size)
                assert np.all(rs.effective_n[~support] == 0.0)
                assert np.allclose(rs.smooth[support], smooth[support], rtol=0.0,
                                   atol=1e-4 * np.abs(rs.residuals).max()), (h, size)
                assert np.allclose(rs.effective_n[support], eff_n[support],
                                   rtol=1e-3, atol=0.0), (h, size)


def test_effective_n_finite_where_smooth_is_finite():
    # At x = 0.6 the nearest residual is 29.5 bandwidths away: the weights,
    # about 1e-189, square to zero, so an unscaled (sum w)^2 / sum w^2 is 0/0.
    x = np.array([0.0, 0.01, 0.9])
    d = Dataset(y=np.zeros(3), a=np.array([0.0, 0.0, 1.0]), x=x[:, None])
    ge = make_effects([1.0, 3.0, 0.0], 3)
    rs = residual_series(ge, d, bandwidth=0.02, grid_size=4)[0]
    assert np.allclose(rs.grid, [0.0, 0.3, 0.6, 0.9])
    smooth, eff_n = _dense_nw_smooth(x[:2], np.array([1.0, 3.0]), rs.grid, 0.02)
    assert np.isfinite(rs.smooth[:3]).all() and np.isnan(rs.smooth[3])
    assert np.allclose(rs.smooth[:3], smooth[:3], rtol=0.0, atol=1e-4)
    assert rs.smooth[2] == pytest.approx(3.0, abs=1e-6)
    assert np.isfinite(rs.effective_n).all()
    assert np.allclose(rs.effective_n, eff_n, rtol=1e-3, atol=0.0)
    assert rs.effective_n[2] == pytest.approx(1.0, abs=1e-6)
    assert rs.effective_n[3] == 0.0
    # With a zero multiplier every finite, nonzero smooth leaves its band; a
    # NaN effective_n would make the band NaN and leave x = 0.6 unflagged.
    assert flagged_fraction(rs, 0.0) == 0.75


def _residual_series_peak_bytes(bandwidth):
    n = 100_000
    d = toy_dataset(n=n, seed=6)
    ge = make_effects(Stream(7).normal(n), n)
    tracemalloc.start()
    try:
        residual_series(ge, d, bandwidth=bandwidth, grid_size=200)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smoother_memory_not_grid_by_n():
    # A dense 200 x n weight matrix per arm, and its square, would take
    # about 320 MB at this size.
    assert _residual_series_peak_bytes(0.05) < 64e6


def test_smoother_memory_bounded_at_tiny_bandwidth():
    # 50 bins per bandwidth would be 5e7 bins here; the bin count is capped.
    assert _residual_series_peak_bytes(1e-6) < 64e6


@pytest.mark.parametrize("kwargs", [
    {"bandwidth": float("nan")}, {"bandwidth": float("inf")}, {"bandwidth": 0.0},
    {"bandwidth": -1.0}, {"grid_size": 0}, {"grid_size": -3},
    {"covariate_index": 1}, {"covariate_index": -1},
])
def test_residual_series_rejects_bad_settings(kwargs):
    d = toy_dataset()
    with pytest.raises(DomainError):
        residual_series(make_effects(np.zeros(d.n), d.n), d, **kwargs)


@pytest.mark.parametrize("sd_multiplier", [-1.0, float("nan"), float("inf")])
def test_flags_reject_bad_sd_multiplier(sd_multiplier):
    d = toy_dataset()
    rs = residual_series(make_effects(np.zeros(d.n), d.n), d, bandwidth=0.1)[0]
    with pytest.raises(DomainError):
        flag_regions(rs, sd_multiplier)
    with pytest.raises(DomainError):
        flagged_fraction(rs, sd_multiplier)


def test_grid_of_one_point_and_constant_covariate():
    d = toy_dataset()
    resid = Stream(8).normal(d.n)
    rs = residual_series(make_effects(resid, d.n), d, bandwidth=0.1, grid_size=1)[0]
    assert rs.grid.tolist() == [d.x.min()]
    assert np.isfinite(rs.smooth).all()
    # all covariate values equal: every grid point sees each arm's mean
    flat = Dataset(y=np.zeros(d.n), a=d.a, x=np.full((d.n, 1), 2.5))
    for arm, rs in residual_series(make_effects(resid, d.n), flat, bandwidth=0.1,
                                   grid_size=5).items():
        assert np.allclose(rs.smooth, resid[d.a == arm].mean(), rtol=0.0, atol=1e-12)
        assert np.allclose(rs.effective_n, (d.a == arm).sum(), rtol=1e-12)
