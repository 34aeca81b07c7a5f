"""Cross-fitting, the groupwise closed form, D-SSLS, repeated splits."""

import numpy as np
import pytest

from ssls import estimator
from ssls.clustering import FittedClusterer, KMeansSpec
from ssls.data import CrossFitPlan, Dataset, GroupEffects, Grouping, make_crossfit_plan
from ssls.errors import (
    ClusteringDegenerate,
    DegenerateGroup,
    NonFinite,
    OneArmOnly,
    TooFewSamples,
)
from ssls.estimator import (
    SslsConfig,
    _three_way_split,
    aggregate_effects,
    crossfit_nuisance,
    estimate_dssls,
    estimate_ssls,
    repeated_ssls,
    transformed_sample_from_nuisance,
)
from ssls.learners import (
    CartSpec,
    KnownPropensity,
    LogisticSpec,
    OlsSpec,
    OracleProbSpec,
    OracleSpec,
)
from ssls.estimator import NuisanceFit
from ssls.rng import Stream
from ssls.simulation import BlobConfig, Dgp1Config, draw_blobs, draw_dgp1
from ssls.transformed_ls import solve_transformed_ls


def oracle_cfg(truth, seed=0, **plan_kw):
    plan = CrossFitPlan(seed=seed, **plan_kw)
    return SslsConfig(OracleSpec(truth.outcome_mean),
                      OracleProbSpec(truth.propensity), plan)


def test_crossfit_known_propensity_passthrough():
    d, g, truth = draw_dgp1(Dgp1Config(n=100), stream=Stream(1).child("d"))
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.9), CrossFitPlan(seed=3))
    nf = crossfit_nuisance(d, cfg, g)
    assert np.allclose(nf.e_hat, 0.9)


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
    plan = make_crossfit_plan(n, CrossFitPlan(n_folds=2, seed=9))
    cfg = SslsConfig(CartSpec(min_leaf=2), KnownPropensity(0.5),
                     plan)
    nf = crossfit_nuisance(d, cfg, g)
    for k, fold in enumerate(plan.folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        expected = y[mask].mean()
        assert np.allclose(nf.m_hat[fold], expected, atol=1e-12)
        assert (nf.fold_of[fold] == k).all()


def test_crossfit_one_arm_fold():
    n = 40
    d = Dataset(y=np.zeros(n), a=np.ones(n), x=np.zeros((n, 1)))
    from ssls.learners import LogisticSpec

    cfg = SslsConfig(CartSpec(min_leaf=2), LogisticSpec(), CrossFitPlan(seed=1))
    with pytest.raises(OneArmOnly):
        crossfit_nuisance(d, cfg)


def test_estimate_hand_example():
    # e = 0.5, m = 0, y = a, one group of four with two treated:
    # tau = (0.5 + 0.5 + 0 + 0) / (4 * 0.25) = 1
    d = Dataset(y=[1.0, 1.0, 0.0, 0.0], a=[1, 1, 0, 0], x=np.zeros((4, 1)))
    g = Grouping([1, 1, 1, 1], 1)
    nf = NuisanceFit(m_hat=np.zeros(4), e_hat=np.full(4, 0.5),
                     fold_of=np.zeros(4, dtype=int))
    ge = estimate_ssls(d, g, nf)
    assert ge.tau_hat[0] == pytest.approx(1.0, abs=1e-12)
    assert ge.denominators[0] == pytest.approx(1.0)
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
    d = Dataset(y=[1.0, 2.0, 3.0, 4.0], a=[1, 1, 0, 0], x=np.zeros((4, 1)))
    g = Grouping([1, 1, 2, 2], 2)
    # e_hat equal to a in group 2 makes its denominator exactly zero
    nf = NuisanceFit(m_hat=np.zeros(4), e_hat=np.array([0.5, 0.5, 0.0, 0.0]),
                     fold_of=np.zeros(4, dtype=int))
    with pytest.raises(DegenerateGroup) as err:
        estimate_ssls(d, g, nf)
    assert err.value.group == 2


def test_estimate_too_few_samples():
    d = Dataset(y=[1.0, 2.0, 3.0], a=[1, 0, 1], x=np.zeros((3, 1)))
    g = Grouping([1, 2, 2], 2)
    nf = NuisanceFit(m_hat=np.zeros(3), e_hat=np.full(3, 0.5),
                     fold_of=np.zeros(3, dtype=int))
    with pytest.raises(TooFewSamples):
        estimate_ssls(d, g, nf)


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
    recon = (meat / d.n) / (ge.denominators / d.n) ** 2
    assert np.allclose(recon, ge.sigma_gg_hat, rtol=1e-12)


def test_repeats_single_is_identity():
    d, g, truth = draw_dgp1(Dgp1Config(n=200), stream=Stream(7).child("d"))
    cfg = oracle_cfg(truth, seed=8, repeats=1)
    once = repeated_ssls(d, g, cfg)
    seed0 = Stream(8).child("repeat").child(0).key
    plan = make_crossfit_plan(d.n, CrossFitPlan(seed=seed0), grouping=g)
    nf = crossfit_nuisance(d, SslsConfig(cfg.regression_spec, cfg.propensity_spec, plan), g)
    direct = estimate_ssls(d, g, nf)
    assert np.array_equal(once.tau_hat, direct.tau_hat)


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
            denominators=np.array([1.0]),
        )

    agg = aggregate_effects([fake(1.0), fake(2.0), fake(100.0)])
    assert agg.tau_hat[0] == 2.0
    assert agg.sigma_gg_hat[0] == 2.0
    assert (agg.residuals == 2.0).all()


def test_repeats_deterministic():
    d, g, truth = draw_dgp1(Dgp1Config(n=150), stream=Stream(9).child("d"))
    cfg = oracle_cfg(truth, seed=11, repeats=5)
    a = repeated_ssls(d, g, cfg)
    b = repeated_ssls(d, g, cfg)
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
        singles.append(repeated_ssls(d, g, cfg1).tau_hat[0])
        medians.append(repeated_ssls(d, g, cfg25).tau_hat[0])
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
    plan = make_crossfit_plan(d_est.n, CrossFitPlan(seed=seed_est), grouping=grouping)
    nf = crossfit_nuisance(d_est, SslsConfig(OlsSpec(), KnownPropensity(0.5), plan), grouping)
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
        d = Dataset(y, a, x, known_propensity=np.full(n, 0.5))
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
