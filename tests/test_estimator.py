"""Cross-fitting, the groupwise closed form, D-SSLS, repeated splits."""

import concurrent.futures
import multiprocessing
import sys
import warnings

import numpy as np
import pytest

from ssls import estimator
from ssls.clustering import FittedClusterer, KMeansSpec
from ssls.data import CrossFitPlan, Dataset, GroupEffects, Grouping, make_crossfit_plan
from ssls.errors import (
    ClusteringDegenerate,
    DegenerateGroup,
    DomainError,
    FoldsNotPartition,
    LengthMismatch,
    NonConvergenceWarning,
    NonFinite,
    OneArmOnly,
    TooFewSamples,
    ZeroVarianceGroup,
)
from ssls.estimator import (
    SslsConfig,
    _three_way_split,
    aggregate_effects,
    crossfit_nuisance,
    estimate_dssls,
    estimate_ssls,
    repeated_ssls,
)
from ssls.learners import (
    CartSpec,
    GbmSpec,
    KnownPropensity,
    LogisticSpec,
    OlsSpec,
    OracleSpec,
    fit_propensity,
)
from ssls.estimator import NuisanceFit
from ssls.rng import Stream
from ssls.simulation import Dgp1Config, draw_dgp1
from blobs import BlobConfig, draw_blobs
from ls_oracle import solve_transformed_ls, transformed_sample_from_nuisance


def oracle_cfg(truth, seed=0, **plan_kw):
    plan = CrossFitPlan(seed=seed, **plan_kw)
    return SslsConfig(OracleSpec(truth.outcome_mean),
                      OracleSpec(truth.propensity), plan)


def test_crossfit_known_propensity_passthrough():
    # a scalar is broadcast, a column lines up by position; both are clipped
    d, g, truth = draw_dgp1(Dgp1Config(n=100), stream=Stream(1).child("d"))
    column = np.linspace(0.001, 0.999, d.n)
    for values, expected in [(0.9, 0.9), (0.999, 0.99),
                             (column, np.clip(column, 0.01, 0.99))]:
        cfg = SslsConfig(OlsSpec(), KnownPropensity(values), CrossFitPlan(seed=3))
        nf = crossfit_nuisance(d, cfg, g)
        assert np.allclose(nf.e_hat, expected)


def _no_fitting(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a learner was fitted")
    for name in ("fit_regression", "fit_propensity", "fit_kmeans"):
        monkeypatch.setattr(estimator, name, fail)


@pytest.mark.parametrize("extra", [5, -5])
def test_known_propensity_column_length_checked_before_fitting(monkeypatch, extra):
    d, g, _ = draw_blobs(BlobConfig(n=300), stream=Stream(15).child("d"))
    cfg = SslsConfig(OlsSpec(), KnownPropensity(np.full(d.n + extra, 0.5)),
                     CrossFitPlan(seed=4))
    _no_fitting(monkeypatch)
    with pytest.raises(LengthMismatch, match=f"{d.n + extra} entries for {d.n}"):
        repeated_ssls(d, g, cfg)
    with pytest.raises(LengthMismatch, match=f"{d.n + extra} entries for {d.n}"):
        estimate_dssls(d, KMeansSpec(n_groups=2, seed=0), cfg)


@pytest.mark.parametrize("learner", [OlsSpec(), GbmSpec()])
def test_non_finite_outcome_rejected_before_fitting(learner):
    d, g, _ = draw_dgp1(Dgp1Config(n=400), stream=Stream(7).child("d"))
    y = d.y.copy()
    y[17] = np.inf
    cfg = SslsConfig(learner, LogisticSpec(), CrossFitPlan(seed=8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="outcome at row 17"):
            repeated_ssls(Dataset(y, d.a, d.x), g, cfg)


def test_crossfit_oracle_regression_exact():
    d, g, truth = draw_dgp1(Dgp1Config(n=100), stream=Stream(2).child("d"))
    cfg = oracle_cfg(truth, seed=3)
    nf = crossfit_nuisance(d, cfg, g)
    assert np.allclose(nf.m_hat, truth.outcome_mean(d.x), atol=1e-12)


def test_crossfit_out_of_fold_bookkeeping():
    # constant covariate: a CART stump predicts its training fold's mean, so
    # each out-of-fold prediction must equal the complement fold's y mean
    n = 100
    s = Stream(3)
    y = s.normal(n) + 5.0
    d = Dataset(y=y, a=s.bernoulli(0.5, n), x=np.zeros((n, 1)))
    g = Grouping(np.ones(n, dtype=int), 1)
    plan = CrossFitPlan(n_folds=2, seed=9)
    fold_of = make_crossfit_plan(n, plan)
    cfg = SslsConfig(CartSpec(min_leaf=2), KnownPropensity(0.5), plan)
    nf = crossfit_nuisance(d, cfg, g, fold_of=fold_of)
    assert np.array_equal(nf.fold_of, fold_of)
    assert np.array_equal(crossfit_nuisance(d, cfg, g).fold_of, fold_of)  # drawn from cfg.plan
    for k in range(2):
        fold = fold_of == k
        assert np.allclose(nf.m_hat[fold], y[~fold].mean(), atol=1e-12)


def test_crossfit_one_arm_fold():
    n = 40
    d = Dataset(y=np.zeros(n), a=np.ones(n), x=np.zeros((n, 1)))
    from ssls.learners import LogisticSpec

    cfg = SslsConfig(CartSpec(min_leaf=2), LogisticSpec(), CrossFitPlan(seed=1))
    with pytest.raises(OneArmOnly):
        crossfit_nuisance(d, cfg)


@pytest.mark.parametrize("folds, message", [
    (np.arange(200) % 3, "fold label 2 of row 2 is outside 0..1"),
    (np.arange(200) % 2 - 1, "fold label -1 of row 0 is outside 0..1"),
    (np.zeros(200), "fold labels must be a vector of integers, got float64 of shape"),
    (np.zeros(150, dtype=np.int64), "the folds hold 150 rows for 200 observations"),
])
def test_crossfit_rejects_folds_that_do_not_partition(monkeypatch, folds, message):
    # before, uncovered rows kept np.empty garbage and tau_hat came back
    d, g, _ = draw_dgp1(Dgp1Config(n=200), stream=Stream(2).child("d"))
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan())
    _no_fitting(monkeypatch)
    with pytest.raises(FoldsNotPartition, match=message):
        crossfit_nuisance(d, cfg, g, fold_of=folds)


def test_crossfit_rejects_a_plan_drawn_for_another_n():
    # before, folds materialized for 100 rows were silently redrawn for 200
    d, g, _ = draw_dgp1(Dgp1Config(n=200), stream=Stream(2).child("d"))
    plan = CrossFitPlan(seed=1)
    fold_of = make_crossfit_plan(100, plan)
    with pytest.raises(FoldsNotPartition, match="the folds hold 100 rows for 200"):
        crossfit_nuisance(d, SslsConfig(OlsSpec(), KnownPropensity(0.5), plan), g,
                          fold_of=fold_of)


def test_estimate_hand_example():
    # e = 0.5, m = 0, y = a, one group of four with two treated:
    # tau = (0.5 + 0.5 + 0 + 0) / (4 * 0.25) = 1
    d = Dataset(y=[1.0, 1.0, 0.0, 0.0], a=[1, 1, 0, 0], x=np.zeros((4, 1)))
    g = Grouping([1, 1, 1, 1], 1)
    nf = NuisanceFit(m_hat=np.zeros(4), e_hat=np.full(4, 0.5),
                     fold_of=np.zeros(4, dtype=int))
    ge = estimate_ssls(d, g, nf)
    assert ge.tau_hat[0] == pytest.approx(1.0, abs=1e-12)
    # every residual is 0.5: sigma = (0.5^2 * 0.25) / 0.25^2
    assert ge.sigma_gg_hat[0] == pytest.approx(1.0)
    assert ge.n_effective == 4


def test_estimate_matches_generic_ls():
    d, g, truth = draw_dgp1(Dgp1Config(n=400), stream=Stream(4).child("d"))
    cfg = oracle_cfg(truth, seed=5)
    nf = crossfit_nuisance(d, cfg, g)
    ge = estimate_ssls(d, g, nf)
    est = solve_transformed_ls(transformed_sample_from_nuisance(d, g, nf))
    assert np.allclose(ge.tau_hat, est.beta_hat, rtol=1e-10)
    assert np.allclose(ge.sigma_gg_hat, np.diag(est.sigma_hat), rtol=1e-10)
    off_diag = est.gram - np.diag(np.diag(est.gram))
    assert np.abs(off_diag).max() == 0.0


def test_estimate_degenerate_group():
    d = Dataset(y=[1.0, 2.0, 3.0, 4.0], a=[1, 0, 1, 0], x=np.zeros((4, 1)))
    g = Grouping([1, 1, 2, 2], 2)
    # e_hat equal to a in group 2 makes its denominator exactly zero
    nf = NuisanceFit(m_hat=np.zeros(4), e_hat=np.array([0.5, 0.5, 1.0, 0.0]),
                     fold_of=np.zeros(4, dtype=int))
    with pytest.raises(DegenerateGroup) as err:
        estimate_ssls(d, g, nf)
    assert err.value.group == 2


def test_estimate_too_few_samples():
    # each group needs a treated and a control row, so 3 rows cannot hold
    # 2 groups: the one-row group is named
    d = Dataset(y=[1.0, 2.0, 3.0], a=[1, 0, 1], x=np.zeros((3, 1)))
    g = Grouping([1, 2, 2], 2)
    nf = NuisanceFit(m_hat=np.zeros(3), e_hat=np.full(3, 0.5),
                     fold_of=np.zeros(3, dtype=int))
    with pytest.raises(OneArmOnly) as err:
        estimate_ssls(d, g, nf)
    assert err.value.where == "group 1"


def test_residuals_definition():
    d, g, truth = draw_dgp1(Dgp1Config(n=200), stream=Stream(5).child("d"))
    cfg = oracle_cfg(truth, seed=6)
    nf = crossfit_nuisance(d, cfg, g)
    ge = estimate_ssls(d, g, nf)
    manual = (d.y - nf.m_hat) - (d.a - nf.e_hat) * ge.tau_hat[g.labels - 1]
    assert np.allclose(ge.residuals, manual, atol=1e-12)


def test_sigma_positive_with_residual_variation():
    d, g, truth = draw_dgp1(Dgp1Config(n=300), stream=Stream(6).child("d"))
    cfg = oracle_cfg(truth, seed=7)
    nf = crossfit_nuisance(d, cfg, g)
    ge = estimate_ssls(d, g, nf)
    assert (ge.sigma_gg_hat > 0).all()
    # plug-in form: sigma = (meat/n) / (den/n)^2 exactly
    labels0 = g.labels - 1
    r_a = d.a - nf.e_hat
    meat = np.bincount(labels0, weights=ge.residuals**2 * r_a**2, minlength=4)
    den = np.bincount(labels0, weights=r_a**2, minlength=4)
    recon = (meat / d.n) / (den / d.n) ** 2
    assert np.allclose(recon, ge.sigma_gg_hat, rtol=1e-12)


def test_repeats_single_is_identity():
    d, g, truth = draw_dgp1(Dgp1Config(n=200), stream=Stream(7).child("d"))
    cfg = oracle_cfg(truth, seed=8, repeats=1)
    once, once_fit = repeated_ssls(d, g, cfg)
    seed0 = Stream(8).child("repeat").child(0).key
    fold_of = make_crossfit_plan(d.n, cfg.plan, grouping=g, seed=seed0)
    nf = crossfit_nuisance(d, cfg, g, fold_of=fold_of)
    direct = estimate_ssls(d, g, nf)
    assert np.array_equal(once.tau_hat, direct.tau_hat)
    assert np.array_equal(once_fit.m_hat, nf.m_hat)
    assert np.array_equal(once_fit.fold_of, fold_of)


def test_repeats_reject_non_finite_outcome():
    d, g, _ = draw_dgp1(Dgp1Config(n=200), stream=Stream(7).child("d"))
    y = d.y.copy()
    y[17] = np.nan
    cfg = SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan(seed=8))
    with pytest.raises(NonFinite, match="outcome at row 17"):
        repeated_ssls(Dataset(y, d.a, d.x), g, cfg)


def test_repeats_median_aggregation():
    def fake(tau):
        return GroupEffects(
            tau_hat=np.array([tau]),
            sigma_gg_hat=np.array([abs(tau)]),
            n_g=np.array([4]),
            n_effective=4,
            residuals=np.full(4, tau),
        )

    agg = aggregate_effects([fake(1.0), fake(2.0), fake(100.0)])
    assert agg.tau_hat[0] == 2.0
    assert agg.sigma_gg_hat[0] == 2.0
    assert (agg.residuals == 2.0).all()


def test_repeats_deterministic():
    d, g, truth = draw_dgp1(Dgp1Config(n=150), stream=Stream(9).child("d"))
    cfg = oracle_cfg(truth, seed=11, repeats=5)
    a, _ = repeated_ssls(d, g, cfg)
    b, _ = repeated_ssls(d, g, cfg)
    assert np.array_equal(a.tau_hat, b.tau_hat)
    assert np.array_equal(a.sigma_gg_hat, b.sigma_gg_hat)


def test_repeats_stabilize_estimates():
    # the median over 25 splits varies less across meta-repetitions than a
    # single split does (split randomness is part of the dispersion here)
    singles, medians = [], []
    for rep in range(200):
        d, g, truth = draw_dgp1(Dgp1Config(n=1000), stream=Stream(100 + rep).child("d"))
        cfg1 = oracle_cfg(truth, seed=rep, repeats=1)
        cfg25 = oracle_cfg(truth, seed=rep, repeats=25)
        singles.append(repeated_ssls(d, g, cfg1)[0].tau_hat[0])
        medians.append(repeated_ssls(d, g, cfg25)[0].tau_hat[0])
    assert np.std(medians) <= np.std(singles)


def test_three_way_split_sizes():
    cluster_idx, est_idx = _three_way_split(901, seed=3)
    assert len(cluster_idx) == 301
    assert len(est_idx) == 600
    assert np.array_equal(
        np.sort(np.concatenate([cluster_idx, est_idx])), np.arange(901)
    )


def test_dssls_bypass_matches_manual():
    d, g_true, tau = draw_blobs(BlobConfig(n=300), stream=Stream(12).child("d"))
    rule = lambda x: (1 + (x[:, 0] > 3.5)).astype(np.int64)
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=21))
    res = estimate_dssls(d, rule, cfg)

    cluster_idx, est_idx = _three_way_split(d.n, seed=21)
    d_est = d.subset(est_idx)
    grouping = Grouping(rule(d_est.x), 2)
    seed_est = Stream(21).child("dssls-estimation").key
    fold_of = make_crossfit_plan(d_est.n, cfg.plan, grouping=grouping, seed=seed_est)
    nf = crossfit_nuisance(d_est, cfg, grouping, fold_of=fold_of)
    manual = estimate_ssls(d_est, grouping, nf)
    assert np.array_equal(res.effects.tau_hat, manual.tau_hat)
    assert np.array_equal(res.effects.sigma_gg_hat, manual.sigma_gg_hat)
    assert res.effects.n_effective == len(est_idx)


def test_dssls_kmeans_recovers_blobs():
    agree = []
    for rep in range(20):
        s = Stream(200 + rep)
        d, g_true, tau = draw_blobs(BlobConfig(n=600, spacing=7.0), stream=s.child("d"))
        cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=rep))
        spec = KMeansSpec(n_groups=2, seed=rep, min_group_size=25)
        res = estimate_dssls(d, spec, cfg)
        true_est = g_true.labels[res.estimation_indices]
        found = res.grouping.labels
        direct = (found == true_est).mean()
        agree.append(max(direct, 1.0 - direct))
    assert np.mean(agree) >= 0.99


def test_dssls_label_permutation_equivariance():
    d, _, _ = draw_blobs(BlobConfig(n=300), stream=Stream(13).child("d"))
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=31))
    rule = lambda x: (1 + (x[:, 0] > 3.5)).astype(np.int64)
    flipped = lambda x: (2 - (x[:, 0] > 3.5)).astype(np.int64)
    res_a = estimate_dssls(d, rule, cfg)
    res_b = estimate_dssls(d, flipped, cfg)
    assert np.allclose(res_a.effects.tau_hat, res_b.effects.tau_hat[::-1])
    assert np.allclose(res_a.effects.sigma_gg_hat, res_b.effects.sigma_gg_hat[::-1])


def test_dssls_needs_enough_samples():
    d = Dataset(y=np.zeros(5), a=[0, 1, 0, 1, 0], x=np.zeros((5, 1)))
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=1))
    with pytest.raises(TooFewSamples):
        estimate_dssls(d, lambda x: np.ones(len(x), dtype=np.int64), cfg)


def test_dssls_ci_width_ratio():
    # discovery spends a third of the data, so CI widths grow by ~sqrt(3/2)
    ratios = []
    for rep in range(200):
        s = Stream(400 + rep)
        d, g_true, tau = draw_blobs(BlobConfig(n=900), stream=s.child("d"))
        cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=rep))
        res = estimate_dssls(
            d, KMeansSpec(n_groups=2, seed=rep, min_group_size=25), cfg
        )
        nf = crossfit_nuisance(d, cfg, g_true)
        full = estimate_ssls(d, g_true, nf)
        ratios.append(res.effects.se().mean() / full.se().mean())
    assert np.mean(ratios) == pytest.approx(np.sqrt(1.5), rel=0.10)


def test_finer_partition_less_efficient():
    # splitting a homogeneous group in half cannot reduce the plug-in variance
    parent_sigma, child_sigma = [], []
    for rep in range(200):
        s = Stream(600 + rep)
        n = 400
        x = s.child("x").normal(n)[:, None]
        a = s.child("a").bernoulli(0.5, n).astype(float)
        y = 1.0 * a + x[:, 0] + s.child("e").normal(n)
        d = Dataset(y, a, x)
        cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=rep))
        one = Grouping(np.ones(n, dtype=int), 1)
        nf = crossfit_nuisance(d, cfg, one)
        parent = estimate_ssls(d, one, nf)
        two = Grouping(1 + (x[:, 0] > 0).astype(int), 2)
        child = estimate_ssls(d, two, nf)
        parent_sigma.append(parent.sigma_gg_hat[0])
        child_sigma.append(child.sigma_gg_hat.mean())
    assert np.mean(child_sigma) >= np.mean(parent_sigma)


def test_dssls_cluster_missing_from_estimation_sample(monkeypatch):
    # A fitted centroid that no estimation row is nearest to is reported as a
    # degenerate clustering, not as a group below the size gate.
    d, _, _ = draw_blobs(BlobConfig(n=300), stream=Stream(14).child("d"))
    far = np.array([[0.0, 0.0], [1e6, 1e6]])
    fc = FittedClusterer(centroids=far, col_mean=np.zeros(2), col_scale=np.ones(2),
                         inertia=0.0, inertia_path=(0.0,))
    monkeypatch.setattr(estimator, "fit_kmeans", lambda x, spec: fc)
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=32))
    with pytest.raises(ClusteringDegenerate):
        estimate_dssls(d, KMeansSpec(n_groups=2, seed=0, min_group_size=1000), cfg)


@pytest.mark.parametrize("third", ["clustering", "estimation"])
def test_dssls_non_finite_covariate_named_by_data_row(monkeypatch, third):
    d, _, _ = draw_blobs(BlobConfig(n=300), stream=Stream(16).child("d"))
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(seed=33))
    cluster_idx, est_idx = _three_way_split(d.n, seed=33)
    row = int((cluster_idx if third == "clustering" else est_idx)[3])
    x = d.x.copy()
    x[row, 1] = np.nan
    _no_fitting(monkeypatch)
    with pytest.raises(NonFinite) as err:
        estimate_dssls(Dataset(d.y, d.a, x), KMeansSpec(n_groups=2, seed=0), cfg)
    assert (err.value.row, err.value.col) == (row, 1)


def test_outcome_scale_equivariance():
    # y -> c y scales every m_hat by c and leaves e_hat alone, so tau_hat
    # scales by c and the standard error by |c|.
    for seed in range(5):
        d, g, _ = draw_dgp1(Dgp1Config(n=400), stream=Stream(700 + seed).child("d"))
        cfg = SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan(seed=seed, repeats=3))
        base, _ = repeated_ssls(d, g, cfg)
        for c in (-3.0, 0.5, 7.0):
            scaled, _ = repeated_ssls(Dataset(c * d.y, d.a, d.x), g, cfg)
            assert np.allclose(scaled.tau_hat, c * base.tau_hat, rtol=1e-9, atol=0.0)
            assert np.allclose(scaled.se(), abs(c) * base.se(), rtol=1e-9, atol=0.0)


def test_group_label_permutation_equivariance():
    # Unstratified folds do not depend on the labels, and the closed form
    # sums each group's rows in row order, so renaming groups only reorders
    # the estimates.
    for seed in range(5):
        d, g, _ = draw_dgp1(Dgp1Config(n=400), stream=Stream(800 + seed).child("d"))
        perm = Stream(seed).child("perm").permutation(g.n_groups)
        renamed = Grouping(perm[g.labels - 1] + 1, g.n_groups)
        cfg = SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan(seed=seed))
        base, _ = repeated_ssls(d, g, cfg)
        moved, _ = repeated_ssls(d, renamed, cfg)
        assert np.array_equal(moved.tau_hat[perm], base.tau_hat)
        assert np.array_equal(moved.se()[perm], base.se())


def test_constant_outcome_names_the_zero_variance_group():
    # A constant zero outcome is fitted exactly by ols, so every residual is
    # zero and sigma_gg_hat = 0; repeated_ssls names the first such group
    # instead of letting inference divide 0 by 0.
    d, g, _ = draw_dgp1(Dgp1Config(n=400), stream=Stream(40).child("d"))
    flat = Dataset(np.zeros(d.n), d.a, d.x)
    cfg = SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan(seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroVarianceGroup) as err:
            repeated_ssls(flat, g, cfg)
    assert (err.value.group, err.value.variance) == (1, 0.0)
    assert "group 1" in str(err.value)

    # an outcome that is an exact function of x on group 3 alone, with the
    # oracle outcome model: only group 3's residuals vanish, and it is named
    def mean(x):
        return x[:, 0] - x[:, 1]

    y = np.where(g.labels == 3, mean(d.x), d.y)
    cfg = SslsConfig(OracleSpec(mean), KnownPropensity(0.5), CrossFitPlan(seed=1))
    with pytest.raises(ZeroVarianceGroup) as err:
        repeated_ssls(Dataset(y, d.a, d.x), g, cfg)
    assert (err.value.group, err.value.variance) == (3, 0.0)
    # estimate_ssls itself returns the closed form, zeros included
    # (criterion 06 compares it with the generic engine on one-row groups)
    nf = crossfit_nuisance(Dataset(y, d.a, d.x), cfg, g)
    assert estimate_ssls(Dataset(y, d.a, d.x), g, nf).sigma_gg_hat[2] == 0.0


@pytest.mark.parametrize("learner_y", [OlsSpec(), GbmSpec()], ids=["ols", "gbm"])
def test_a_standard_error_at_rounding_level_is_zero(learner_y):
    # ols fits a constant 3.0 only up to rounding, which left standard
    # errors of about 0.1 eps * 3 and a t-statistic of 3.6 in group 1; gbm
    # fits it exactly. Both now name group 1.
    d, g, _ = draw_dgp1(Dgp1Config(n=400), stream=Stream(1).child("d"))
    cfg = SslsConfig(learner_y, LogisticSpec(), CrossFitPlan(seed=3))
    with pytest.raises(ZeroVarianceGroup) as err:
        repeated_ssls(Dataset(np.full(d.n, 3.0), d.a, d.x), g, cfg)
    assert (err.value.group, err.value.variance) == (1, 0.0)
    # unit noise on an offset of 1e6 is far above rounding at that scale
    base, _ = repeated_ssls(d, g, cfg)
    shifted, _ = repeated_ssls(Dataset(d.y + 1e6, d.a, d.x), g, cfg)
    assert np.allclose(shifted.se(), base.se(), rtol=1e-6, atol=0.0)


def test_an_empty_seed_list_is_named():
    d, g, _ = draw_dgp1(Dgp1Config(n=200), stream=Stream(7).child("d"))
    cfg = SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan())
    with pytest.raises(DomainError, match="empty list"):
        repeated_ssls(d, g, cfg, seeds=[])


@pytest.mark.parametrize("learner_y, learner_e", [
    (OlsSpec(), LogisticSpec()), (GbmSpec(), LogisticSpec()), (CartSpec(), CartSpec()),
], ids=["ols-logistic", "gbm-logistic", "cart-cart"])
def test_treatment_flip_outcome_shift_and_affine_covariate(learner_y, learner_e):
    # a -> 1 - a negates a - e_hat, y + c shifts y and m_hat alike, and an
    # increasing affine map of a covariate leaves every fit's predictions as
    # they were; so tau_hat is negated or kept and the standard error kept,
    # up to rounding. Each residual is rounded at the outcome's scale,
    # eps * max|y|, and tau_hat and the standard error are ratios of group
    # sums of those residuals to sums of (a - e_hat)^2, so they move by a
    # small multiple of it: the multiple below which estimate_ssls treats a
    # standard error as zero.
    d, g, _ = draw_dgp1(Dgp1Config(n=1000), stream=Stream(11).child("d"))
    cfg = SslsConfig(learner_y, learner_e, CrossFitPlan(stratified=True, seed=4))
    base, _ = repeated_ssls(d, g, cfg)
    x = d.x.copy()
    x[:, 0] = 3.0 * x[:, 0] - 2.0
    for data, sign in ((Dataset(d.y, 1.0 - d.a, d.x), -1.0),
                       (Dataset(d.y + 1000.0, d.a, d.x), 1.0),
                       (Dataset(d.y, d.a, x), 1.0)):
        moved, _ = repeated_ssls(data, g, cfg)
        tol = estimator._ROUNDING_SE * np.finfo(np.float64).eps * np.abs(data.y).max()
        assert np.abs(moved.tau_hat - sign * base.tau_hat).max() <= tol
        assert np.abs(moved.se() - base.se()).max() <= tol


def _tie_free_design(seed, n=400):
    """Three continuous covariates (no ties, so every presorted order is
    unique), four groups cut from them and a logistic treatment."""
    s = Stream(seed)
    x = s.child("x").normal(3 * n).reshape(n, 3)
    labels = 1 + (x[:, 0] > 0.0) + 2 * (x[:, 2] > 0.0)
    a = s.child("a").bernoulli(1.0 / (1.0 + np.exp(-(0.5 * x[:, 0] - 0.5 * x[:, 1]))))
    tau = np.array([1.0, 2.0, 3.0, 4.0])[labels - 1]
    y = x[:, 0] ** 2 + x[:, 1] + tau * a + s.child("eps").normal(n)
    return Dataset(y, a.astype(np.float64), x), Grouping(labels, 4)


@pytest.mark.parametrize("learner_y, learner_e", [(OlsSpec(), LogisticSpec()),
                                                  (GbmSpec(), GbmSpec())])
def test_row_permutation_invariance(learner_y, learner_e):
    # Permuting the rows, and the folds to match, leaves every fold's
    # training set and test set as they were, so only the order of sums
    # changes; trees see the same presorted orders on tie-free covariates.
    for seed in range(3):
        d, g = _tie_free_design(900 + seed)
        cfg = SslsConfig(learner_y, learner_e, CrossFitPlan(seed=seed))
        fold_of = make_crossfit_plan(d.n, cfg.plan)
        base = estimate_ssls(d, g, crossfit_nuisance(d, cfg, g, fold_of=fold_of))

        perm = Stream(seed).child("rows").permutation(d.n)  # new row i is old row perm[i]
        d_moved = Dataset(d.y[perm], d.a[perm], d.x[perm])
        g_moved = Grouping(g.labels[perm], g.n_groups)
        moved = estimate_ssls(d_moved, g_moved, crossfit_nuisance(
            d_moved, cfg, g_moved, fold_of=fold_of[perm]))
        assert np.allclose(moved.tau_hat, base.tau_hat, rtol=1e-9, atol=0.0)
        assert np.allclose(moved.se(), base.se(), rtol=1e-9, atol=0.0)


# Fork-join cross-fitting. The crossover is forced to 0 so that every fit
# below takes the forked path, and the CPU count is patched so that 1 (no
# children), 2 and 4 CPUs are all exercised on any machine; the folds must
# come out as the serial loop's, bit for bit.

forking = pytest.mark.skipif(not sys.platform.startswith("linux"),
                             reason="folds run in forked processes on Linux only")


def _serial_and_forked(monkeypatch, fit, cpus):
    """fit() with one CPU, then with `cpus` CPUs and no crossover."""
    monkeypatch.setattr(estimator, "usable_cpus", lambda: 1)
    serial = fit()
    monkeypatch.setattr(estimator, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(estimator, "_MIN_FORKED_WORK", 0)
    return serial, fit()


@forking
@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("n_folds", [2, 5])
@pytest.mark.parametrize("learners", ["gbm/logistic", "gbm/gbm", "cart/cart", "oracle",
                                      "known"])
def test_forked_folds_equal_the_serial_fit(monkeypatch, cpus, n_folds, learners):
    d, g, truth = draw_dgp1(Dgp1Config(n=240), stream=Stream(31).child("d"))
    small = GbmSpec(n_trees=10)
    specs = {"gbm/logistic": (small, LogisticSpec()),
             "gbm/gbm": (small, small),
             "cart/cart": (CartSpec(), CartSpec()),
             # lambdas do not pickle; the forked folds inherit them
             "oracle": (OracleSpec(lambda x: truth.outcome_mean(x)),
                        OracleSpec(lambda x: truth.propensity(x))),
             "known": (small, KnownPropensity(truth.propensity(d.x)))}[learners]
    cfg = SslsConfig(*specs, CrossFitPlan(n_folds=n_folds, seed=7))
    serial, forked = _serial_and_forked(monkeypatch, lambda: crossfit_nuisance(d, cfg, g),
                                        cpus)
    for name in ("m_hat", "e_hat", "fold_of"):
        assert np.array_equal(getattr(forked, name), getattr(serial, name)), name


@forking
@pytest.mark.parametrize("sizes, message", [
    # fold 0 trains on 10 rows, too few for min_leaf 10, in a child; fold 1
    # trains on 35 rows in this process and succeeds
    ((35, 10), "10 rows is too few to fit GbmSpec"),
    # both folds fail; fold 0's error, from the child, is the one raised
    ((15, 12), "12 rows is too few to fit GbmSpec"),
])
def test_an_error_in_a_forked_fold_reaches_the_caller(monkeypatch, sizes, message):
    n = sum(sizes)
    s = Stream(32)
    d = Dataset(s.child("y").normal(n), (np.arange(n) % 2).astype(np.float64),
                s.child("x").normal(n)[:, None])
    fold_of = np.repeat([0, 1], sizes)
    cfg = SslsConfig(GbmSpec(n_trees=5), LogisticSpec(), CrossFitPlan(seed=1))

    def fit():
        with pytest.raises(TooFewSamples) as info:
            crossfit_nuisance(d, cfg, fold_of=fold_of)
        return str(info.value)

    serial, forked = _serial_and_forked(monkeypatch, fit, 2)
    assert forked == serial == message
    assert multiprocessing.active_children() == []


@forking
def test_forked_fold_warnings_are_raised_here_in_fold_order(monkeypatch):
    d, g, _ = draw_dgp1(Dgp1Config(n=200), stream=Stream(33).child("d"))
    cfg = SslsConfig(GbmSpec(n_trees=5), LogisticSpec(max_iter=1),
                     CrossFitPlan(n_folds=3, seed=2))

    def fit():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            crossfit_nuisance(d, cfg, g)
        return [(w.category, str(w.message), w.filename) for w in caught]

    serial, forked = _serial_and_forked(monkeypatch, fit, 2)
    assert len(serial) == 3
    assert forked == serial
    assert serial[0][0] is NonConvergenceWarning


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=forking)])
def test_fold_warnings_keep_their_module_for_the_filters(monkeypatch, cpus):
    # A filter on ssls.learners catches a fold's warning, in this process or
    # in a forked one, as it catches the same warning from a direct fit.
    d, g, _ = draw_dgp1(Dgp1Config(n=200), stream=Stream(33).child("d"))
    cfg = SslsConfig(OlsSpec(), LogisticSpec(max_iter=1), CrossFitPlan(seed=2))
    monkeypatch.setattr(estimator, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(estimator, "_MIN_FORKED_WORK", 0)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", module="ssls.learners")
        with pytest.raises(NonConvergenceWarning):
            fit_propensity(LogisticSpec(max_iter=1), d.x, d.a)
        with pytest.raises(NonConvergenceWarning):
            crossfit_nuisance(d, cfg, g)
    assert multiprocessing.active_children() == []


def test_small_fits_stay_in_this_process(monkeypatch):
    # the traced calibration runs of perfbench fit 100-tree GBMs on about
    # 100 training rows; they must stay below the crossover
    d, g, _ = draw_dgp1(Dgp1Config(n=200), stream=Stream(34).child("d"))
    monkeypatch.setattr(estimator, "usable_cpus", lambda: 4)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    crossfit_nuisance(d, SslsConfig(GbmSpec(), GbmSpec(), CrossFitPlan(seed=0)), g)
    crossfit_nuisance(d, SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan(seed=0)), g)


def _one_arm_design(case):
    """420 rows in two groups by the sign of x1, plus a group 3 that
    identifies no effect: one row, or 20 rows all in control. Group 3 lies
    in the estimation two thirds of estimate_dssls's split at seed 0."""
    s = Stream(35)
    n = 420
    x = s.normal(2 * n).reshape(n, 2)
    a = (s.uniform(n) < 0.5).astype(float)
    y = x[:, 0] + 2.0 * a + s.normal(n)
    labels = 1 + (x[:, 0] >= 0.0).astype(np.int64)
    est_idx = _three_way_split(n, 0)[1]
    third = est_idx[:1] if case == "one-row" else est_idx[:20]
    labels[third] = 3
    a[third] = 0.0
    return Dataset(y, a, x), labels, est_idx


def _run_cli(d, labels, tmp_path):
    from ssls.cli import main

    path = tmp_path / "one-arm.csv"
    with open(path, "w") as fh:
        fh.write("y,a,g,x1,x2\n")
        for row in zip(d.y, d.a, labels, d.x[:, 0], d.x[:, 1]):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return main(["estimate", "--data", str(path), "--outcome", "y", "--treatment", "a",
                 "--group", "g", "--covariates", "x1,x2", "--learner-y", "ols",
                 "--seed", "0", "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("case", ["one-row", "control-only"])
@pytest.mark.parametrize("entry", ["repeated_ssls", "estimate_dssls", "cli"])
def test_a_group_with_one_arm_is_rejected_before_any_fit(tmp_path, monkeypatch, capsys,
                                                         case, entry):
    # Nothing in group 3 is treated, so nothing identifies its effect; the
    # closed form once returned a confident estimate for it.
    d, labels, est_idx = _one_arm_design(case)
    cfg = SslsConfig(OlsSpec(), LogisticSpec(), CrossFitPlan(seed=0))
    fits = []
    monkeypatch.setattr(estimator, "fit_regression", lambda *a, **kw: fits.append(1))
    if entry == "cli":
        assert _run_cli(d, labels, tmp_path) == 3
        assert capsys.readouterr().err == (
            "gate failure: only one treatment arm present in group 3\n")
        assert not (tmp_path / "out").exists()
    else:
        with pytest.raises(OneArmOnly) as err:
            if entry == "repeated_ssls":
                repeated_ssls(d, Grouping(labels, 3), cfg)
            else:
                estimate_dssls(d, lambda x_est: labels[est_idx], cfg)
        assert err.value.where == "group 3"
    assert not fits
