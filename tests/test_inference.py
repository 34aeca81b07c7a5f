"""Testing and intervals: maxT, pointwise, pairwise, GLH, power rule."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from ssls.cli import per_row
from ssls.data import GroupEffects
from ssls.dists import normal_cdf, normal_quantile
from ssls.errors import DomainError, ZeroVarianceContrast, ZeroVarianceGroup
from ssls.inference import (
    Contrast,
    check_alpha,
    glh_test,
    maxt_critical,
    power_min_n,
    simultaneous_cis,
)
from ssls.rng import Stream


def effects(tau, sigma, n_eff, n_g=None):
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if n_g is None:
        n_g = np.full(len(tau), n_eff // len(tau), dtype=np.int64)
    return GroupEffects(
        tau_hat=tau,
        sigma_gg_hat=sigma,
        n_g=np.asarray(n_g, dtype=np.int64),
        n_effective=n_eff,
        residuals=np.zeros(int(n_eff)),
    )


def sidak_oracle(alpha, n_comp):
    """Independent check: solve (2*Phi(q) - 1)^G = 1 - alpha by bisection."""
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (2.0 * normal_cdf(mid) - 1.0) ** n_comp < 1.0 - alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_maxt_examples():
    assert maxt_critical(0.05, 1) == pytest.approx(1.959964, abs=1e-4)
    # published critical value for 45 simultaneous groups
    assert maxt_critical(0.05, 45) == pytest.approx(3.254, abs=1e-3)
    # value frozen from the bisection oracle above (Sidak per-test level)
    assert maxt_critical(0.05, 4) == pytest.approx(2.490915, abs=1e-3)
    for g in (1, 4, 45):
        assert maxt_critical(0.05, g) == pytest.approx(sidak_oracle(0.05, g), abs=1e-9)


def test_maxt_monotone():
    qs = [maxt_critical(0.05, g) for g in range(1, 30)]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    assert maxt_critical(0.01, 5) > maxt_critical(0.05, 5)
    assert maxt_critical(0.05, 1) == pytest.approx(normal_quantile(0.975), abs=1e-9)


def test_maxt_domain():
    with pytest.raises(DomainError):
        maxt_critical(0.0, 3)
    with pytest.raises(DomainError):
        maxt_critical(0.05, 0)


@pytest.mark.parametrize("alpha, n_comparisons, named", [
    (1e-300, 1, "alpha 1e-300 is too small: 1 - alpha/2 rounds to 1"),
    (1e-17, 4, "alpha 1e-17 is too small: 1 - alpha/2 rounds to 1"),
    (1e-15, 100, "alpha 1e-15 with G = 100 comparisons is too small"),
    (1.2e-16, 1, "alpha 1.2e-16 with G = 1 comparisons is too small"),
])
def test_maxt_names_an_alpha_whose_quantile_rounds_away(alpha, n_comparisons, named):
    # each once raised "normal_quantile requires p in (0, 1), got 1.0"
    with pytest.raises(DomainError, match=re.escape(named)):
        maxt_critical(alpha, n_comparisons)


def test_check_alpha_rejects_where_one_minus_half_alpha_rounds_to_one():
    check_alpha(2.0**-52)  # 1 - 2**-53 is the largest double below 1
    for alpha in (2.0**-53, 1e-17, 1e-300, 5e-324):
        with pytest.raises(DomainError, match=f"alpha {alpha} is too small"):
            check_alpha(alpha)
    assert maxt_critical(1e-12, 100) > maxt_critical(1e-9, 100)


def test_pointwise_null_is_untouched():
    ge = effects([1.0, 2.0], [1.0, 1.0], 100)
    rep = simultaneous_cis(ge, tau0=[1.0, 2.0])
    assert np.allclose(rep.t_stat, 0.0)
    assert np.allclose(rep.p_value, 1.0)


def test_pointwise_t_and_p():
    # tau=1, tau0=0, sigma/n = 0.25 -> T = 2, p = 2(1 - Phi(2))
    ge = effects([1.0], [25.0], 100)
    rep = simultaneous_cis(ge)
    assert rep.t_stat[0] == pytest.approx(2.0, abs=1e-12)
    assert rep.p_value[0] == pytest.approx(2.0 * (1.0 - normal_cdf(2.0)), abs=1e-12)
    assert rep.p_value[0] == pytest.approx(0.0455, abs=1e-4)


def test_simultaneous_rejection_near_threshold():
    # a t-statistic of 3.264 against 45 groups clears q = 3.254 only just
    q = maxt_critical(0.05, 45)
    se = 1.0
    ge = effects([3.264] + [0.0] * 44, [1.0] * 45, 1)
    rep = simultaneous_cis(ge, alpha=0.05)
    assert rep.q_crit == pytest.approx(q)
    assert rep.reject_simul[0]
    assert not rep.reject_simul[1:].any()
    assert rep.t_stat[0] > q > rep.z_crit


def test_simultaneous_contains_pointwise():
    s = Stream(1)
    for _ in range(20):
        tau = s.normal(5)
        sigma = np.abs(s.normal(5)) + 0.1
        ge = effects(tau, sigma, 50)
        rep = simultaneous_cis(ge)
        assert (rep.ci_simul_lo <= rep.ci_lo + 1e-12).all()
        assert (rep.ci_simul_hi >= rep.ci_hi - 1e-12).all()


def test_single_group_simultaneous_equals_pointwise():
    ge = effects([1.0], [1.0], 25)
    rep = simultaneous_cis(ge)
    assert rep.ci_simul_lo[0] == pytest.approx(rep.ci_lo[0], abs=1e-9)
    assert rep.ci_simul_hi[0] == pytest.approx(rep.ci_hi[0], abs=1e-9)


def test_simultaneous_width_ratio_g4():
    ge = effects([0.0] * 4, [1.0] * 4, 100)
    rep = simultaneous_cis(ge)
    width = rep.ci_hi - rep.ci_lo
    swidth = rep.ci_simul_hi - rep.ci_simul_lo
    expected = maxt_critical(0.05, 4) / normal_quantile(0.975)
    assert np.allclose(swidth / width, expected, atol=1e-9)


@pytest.mark.parametrize("sigma, group", [
    ([1.0, 0.0, 1.0], 2), ([0.0, 0.0, 1.0], 1), ([1.0, 1.0, -0.5], 3),
    ([np.nan, 1.0, 1.0], 1), ([1.0, np.inf, 1.0], 2),
])
def test_simultaneous_cis_rejects_a_zero_or_non_finite_variance(sigma, group):
    ge = effects([1.0, 2.0, 3.0], sigma, 90)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroVarianceGroup) as err:
            simultaneous_cis(ge)
    assert err.value.group == group
    assert f"group {group} " in str(err.value)


def test_pairwise_examples():
    # each pairwise test is a row of Contrast.pairwise_differences: z^2 is
    # its one-degree-of-freedom chi-square statistic
    ge = effects([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 100)
    same = glh_test(ge, Contrast.pairwise_differences(3))
    assert same.z[0] == 0.0  # groups 1 and 2
    # tau = (1, 2), both ses 0.5
    ge2 = effects([1.0, 2.0], [25.0, 25.0], 100)
    res = glh_test(ge2, Contrast.pairwise_differences(2))
    assert res.z[0] == pytest.approx(-1.41421, abs=1e-5)
    assert res.statistic == pytest.approx(res.z[0] ** 2, abs=1e-12)
    assert res.row_p_values[0] == pytest.approx(2.0 * normal_cdf(-abs(res.z[0])))
    assert res.q_crit == pytest.approx(maxt_critical(0.05, 1), abs=1e-12)
    assert not res.row_reject[0]


def test_all_pairwise_family_size():
    # z = 10 * (tau_1 - tau_g) / sqrt(2): rows (1, 2) and (1, 3) lie just
    # inside and just outside the maxT critical value for 6 rows
    q = maxt_critical(0.05, 6)
    step = math.sqrt(2.0) / 10.0
    ge = effects([0.0, (q - 0.01) * step, -(q + 0.01) * step, 0.0], [1.0] * 4, 100)
    res = glh_test(ge, Contrast.pairwise_differences(4))
    assert res.z.shape == res.row_p_values.shape == res.row_reject.shape == (6,)
    assert res.q_crit == pytest.approx(q)
    assert res.z[:2] == pytest.approx([-(q - 0.01), q + 0.01])
    assert res.row_reject[:2].tolist() == [False, True]
    assert np.array_equal(res.row_reject, np.abs(res.z) > q)


def test_pairwise_rejects_same_group():
    # group 2 against itself, e_2 - e_2, is an all-zero contrast row
    with pytest.raises(DomainError, match="contrast rows must be non-zero"):
        Contrast(np.eye(2)[[1]] - np.eye(2)[[1]], [0.0])


def test_glh_null_statistic_zero():
    ge = effects([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 50)
    res = glh_test(ge, Contrast(np.eye(3), [1.0, 2.0, 3.0]))
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0, abs=1e-12)
    assert not res.reject


def test_glh_identity_example():
    # K = I2, sigma = I, n = 1, tau - m0 = (1, 1): statistic 2 on 2 df
    ge = effects([1.0, 1.0], [1.0, 1.0], 1)
    res = glh_test(ge, Contrast(np.eye(2), [0.0, 0.0]))
    assert res.statistic == pytest.approx(2.0, abs=1e-12)
    assert res.rank == 2


def test_glh_row_selector_matches_squared_t():
    ge = effects([1.3, -0.4, 2.0], [2.0, 1.0, 3.0], 77)
    rep = simultaneous_cis(ge, tau0=[1.0, 0.0, 2.0])
    for g in range(3):
        k = np.zeros((1, 3))
        k[0, g] = 1.0
        res = glh_test(ge, Contrast(k, [rep.tau0[g]]))
        assert res.statistic == pytest.approx(rep.t_stat[g] ** 2, abs=1e-9)
        assert res.rank == 1


def test_glh_one_row_p_value_is_the_row_p_value():
    # z = 10: the one-df chi-square tail of z^2 = 100 is 1.5e-23, which
    # 1 - chisq_cdf would round to 0
    for tau in (0.5, 3.0, 10.0, 30.0):
        ge = effects([tau, 0.0], [1.0, 1.0], 1)
        res = glh_test(ge, Contrast([[1.0, 0.0]], [0.0]))
        assert res.statistic == pytest.approx(tau * tau, rel=1e-12)
        assert res.p_value == pytest.approx(res.row_p_values[0], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_bad_alpha_is_named(alpha):
    ge = effects([1.0, 2.0], [1.0, 1.0], 10)
    with pytest.raises(DomainError, match="alpha"):
        simultaneous_cis(ge, alpha=alpha)
    with pytest.raises(DomainError, match="alpha"):
        glh_test(ge, Contrast(np.eye(2), [0.0, 0.0]), alpha=alpha)


def test_glh_rank_deficient_pairwise():
    ge = effects([0.1, 0.2, -0.1, 0.4], [1.0, 2.0, 1.5, 1.2], 30)
    contrast = Contrast.pairwise_differences(4)
    res = glh_test(ge, contrast)
    assert res.rank == 3  # all pairwise differences span only G-1 dimensions


def test_glh_zero_variance():
    ge = effects([0.0, 0.0], [1.0, 1.0], 10)
    with pytest.raises(ValueError):
        Contrast(np.array([[0.0, 0.0]]), [0.0])
    bad = effects([0.0, 0.0], [0.0, 0.0], 10)
    with pytest.raises(ZeroVarianceContrast):
        glh_test(bad, Contrast(np.eye(2), [0.0, 0.0]))


def test_power_min_n_examples():
    assert power_min_n(1.0) == 8
    assert power_min_n(2.8016) == 1
    assert power_min_n(0.1) == 785
    z_sum = normal_quantile(0.8) + normal_quantile(0.975)
    assert power_min_n(1.0) == math.ceil(z_sum**2)


def test_power_min_n_domain():
    with pytest.raises(DomainError):
        power_min_n(0.0)
    with pytest.raises(DomainError):
        power_min_n(1.0, alpha=1.5)
    for z_tilde in (float("inf"), float("nan"), -1.0):
        with pytest.raises(DomainError, match="z_tilde must be finite and positive"):
            power_min_n(z_tilde)
    with pytest.raises(DomainError, match="the group size it needs overflows"):
        power_min_n(1e-300)
    assert power_min_n(1e-150) > 10**300  # large but finite


def test_report_serialization_roundtrip():
    ge = effects([1.0, -0.5], [4.0, 2.0], 64)
    rep = simultaneous_cis(ge, alpha=0.1)
    assert rep.alpha == 0.1
    assert rep.effects is ge
    table = rep.table
    assert rep.table is table  # built once, then shared by both writers
    assert list(table) == ["g", "n_g", "tau_hat", "se", "sigma_gg_hat", "tau0",
                           "t_stat", "p_value", "ci_lo", "ci_hi", "ci_simul_lo",
                           "ci_simul_hi", "reject_pointwise", "reject_simultaneous"]
    assert table["g"].tolist() == [1, 2]
    assert table["n_g"].tolist() == [32, 32]
    assert np.array_equal(table["tau_hat"], [1.0, -0.5])
    assert np.array_equal(table["se"], ge.se())
    assert np.array_equal(table["sigma_gg_hat"], [4.0, 2.0])
    rows = json.loads(json.dumps(per_row(table)))
    assert len(rows) == 2
    for i, row in enumerate(rows):
        assert list(row) == list(table)
        for name, column in table.items():
            assert row[name] == column[i] and type(row[name]) is type(column[i].item())
