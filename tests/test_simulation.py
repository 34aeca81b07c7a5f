"""Data-generating processes and study harness checks."""

import sys

import numpy as np
import pytest

from ssls.cli import main
from ssls.data import CrossFitPlan
from ssls.errors import DomainError, EmptyGroup, ZeroVarianceGroup
from ssls.estimator import SslsConfig, crossfit_nuisance, estimate_ssls
from ssls.learners import LogisticSpec, OlsSpec, learner_spec
from ssls.parallel import fork_join, usable_cpus
from ssls.rng import Stream
from ssls.simulation import (
    BlobConfig,
    Dgp1Config,
    Dgp1Truth,
    DgpDiagConfig,
    diag_true_groups,
    diag_wrong_groups,
    draw_blobs,
    draw_dgp1,
    draw_dgp_diag,
    logistic,
    run_power_study,
    run_calibration_study,
    run_diagnostic_study,
    run_robustness_study,
)


def test_dgp1_group_shares():
    d, g, truth = draw_dgp1(Dgp1Config(n=100_000), stream=Stream(1).child("d"))
    shares = g.counts() / d.n
    # sign of one standard normal times one fair coin: four equal cells
    mc_se = np.sqrt(0.25 * 0.75 / d.n)
    assert np.abs(shares - 0.25).max() <= 3 * mc_se


def test_dgp1_treatment_rate_at_origin():
    # all covariates at zero puts the treatment probability at logistic(0.5)
    n = 100_000
    x = np.zeros((n, 5))
    truth = Dgp1Truth(tau=np.array([1.0, 2, 3, 4]), nu=np.zeros(4), xi=np.zeros(4))
    p = truth.propensity(x)
    assert np.allclose(p, logistic(0.5))
    draws = Stream(2).bernoulli(p)
    mc_se = np.sqrt(logistic(0.5) * (1 - logistic(0.5)) / n)
    assert abs(draws.mean() - logistic(0.5)) <= 3 * mc_se
    assert logistic(0.5) == pytest.approx(0.6225, abs=1e-4)


def test_dgp1_outcome_noise_is_pure():
    d, g, truth = draw_dgp1(Dgp1Config(n=20_000), stream=Stream(3).child("d"))
    noise = d.y - truth.control_mean(d.x) - truth.tau[g.labels - 1] * d.a
    # regressing the leftover noise on covariates recovers nothing
    design = np.column_stack([np.ones(d.n), d.x])
    coef, *_ = np.linalg.lstsq(design, noise, rcond=None)
    assert np.abs(coef).max() < 0.05
    assert abs(noise.std() - 1.0) < 0.05


def test_dgp1_zero_random_effects_exact():
    _, _, truth = draw_dgp1(Dgp1Config(n=100, sigma_a=0.0, sigma_y=0.0),
                            stream=Stream(4).child("d"))
    assert (truth.nu == 0.0).all()
    assert (truth.xi == 0.0).all()


def test_dgp1_random_effects_enter_model():
    cfg = Dgp1Config(n=50_000, sigma_a=2.0, sigma_y=0.0)
    d, g, truth = draw_dgp1(cfg, stream=Stream(5).child("d"))
    assert truth.nu.std() > 0
    # group-level treated shares reflect the realized nu ordering
    lin = truth.treatment_index(d.x)
    for grp in range(1, 5):
        members = g.labels == grp
        implied = logistic(lin[members] + truth.nu[grp - 1]).mean()
        assert abs(d.a[members].mean() - implied) < 0.02


def test_dgp1_truth_record_fidelity():
    # oracle nuisances at large N put every tau_hat within 5 standard errors
    d, g, truth = draw_dgp1(Dgp1Config(n=100_000), stream=Stream(6).child("d"))
    cfg = SslsConfig(learner_spec("oracle", "outcome", truth),
                     learner_spec("oracle", "propensity", truth), CrossFitPlan(seed=7))
    nf = crossfit_nuisance(d, cfg, g)
    ge = estimate_ssls(d, g, nf)
    assert (np.abs(ge.tau_hat - truth.tau) <= 5.0 * ge.se()).all()


def test_diag_group_rules():
    assert diag_true_groups(np.array([0.4]))[0] == 1
    assert diag_true_groups(np.array([0.6]))[0] == 2
    assert diag_wrong_groups(np.array([0.1]))[0] == 1
    assert diag_wrong_groups(np.array([0.5]))[0] == 2
    assert diag_wrong_groups(np.array([0.9]))[0] == 3


def test_diag_outcome_mean():
    _, _, truth = draw_dgp_diag(DgpDiagConfig(n=10), stream=Stream(7).child("d"))
    # E(Y | X = 0.5, A = 0) is the square of the covariate
    grid = np.array([[0.5]])
    m = truth.outcome_mean(grid)
    e = truth.propensity(grid)
    assert m[0] - e[0] * truth.effect(np.array([0.5]))[0] == pytest.approx(0.25)


def test_diag_draw_uses_selected_rule():
    # one draw carries both analysis rules, applied to the same covariate
    d, groupings, _ = draw_dgp_diag(DgpDiagConfig(n=500), stream=Stream(8).child("d"))
    g_correct, g_wrong = groupings["correct"], groupings["misspecified"]
    assert g_correct.n_groups == 2
    assert g_wrong.n_groups == 3
    d2, _, _ = draw_dgp_diag(DgpDiagConfig(n=500), stream=Stream(8).child("d"))
    assert np.array_equal(d.y, d2.y)  # same stream, same data
    assert np.array_equal(g_correct.labels, diag_true_groups(d.x[:, 0]))
    assert np.array_equal(g_wrong.labels, diag_wrong_groups(d.x[:, 0]))


def test_blob_draw_shapes():
    d, g, tau = draw_blobs(BlobConfig(n=200), stream=Stream(9).child("d"))
    assert d.x.shape == (200, 2)
    assert set(np.unique(g.labels)) == {1, 2}


def test_calibration_smoke_and_fields():
    res = run_calibration_study([("oracle", 0.0, 0.0)], reps=2, n=200, seed=1)
    r = res[0]
    assert r.reps == 2
    assert r.bias.shape == (4,)
    assert np.isfinite(r.bias).all()
    assert np.isfinite(r.ese_ase_ratio).all()
    assert 0.0 <= r.coverage <= 1.0


def test_calibration_determinism_and_worker_invariance():
    kw = dict(cells=[("oracle", 0.0, 0.0)], reps=6, n=200, seed=5)
    a = run_calibration_study(**kw, workers=1)[0]
    b = run_calibration_study(**kw, workers=1)[0]
    assert np.array_equal(a.bias, b.bias)
    assert np.array_equal(a.ese, b.ese)
    assert a.coverage == b.coverage
    for workers in (2, 4):
        c = run_calibration_study(**kw, workers=workers)[0]
        assert np.array_equal(a.bias, c.bias)
        assert np.array_equal(a.ese, c.ese)
        assert np.array_equal(a.ase, c.ase)
        assert a.coverage == c.coverage


@pytest.mark.parametrize("seed, error", [(0, ZeroVarianceGroup), (1, EmptyGroup)])
def test_an_error_in_a_worker_reaches_the_caller_as_itself(seed, error):
    # at n = 8 some replicate draws a group with zero plug-in variance
    # (seed 0) or an empty group (seed 1); the first such replicate names
    # the error at any worker count
    kw = dict(cells=[("oracle", 0.0, 0.0)], reps=6, n=8, seed=seed)
    with pytest.raises(error) as serial:
        run_calibration_study(**kw, workers=1)
    for workers in (2, 4):
        with pytest.raises(error) as pooled:
            run_calibration_study(**kw, workers=workers)
        assert str(pooled.value) == str(serial.value)
        assert vars(pooled.value) == vars(serial.value)


def _cpus(rep):
    return usable_cpus()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="replicates run in forked processes on Linux only")
def test_replicate_workers_use_one_cpu():
    assert fork_join(_cpus, 4, workers=2) == [1, 1, 1, 1]


# Each study rejects a reps count that leaves its statistic undefined (NaN
# or a failed stack at the parent) and a workers count below one, before
# any replicate runs; the CLI, where it takes the setting, exits 2.
@pytest.mark.parametrize("study, kw, argv, message", [
    (run_calibration_study, dict(cells=[("oracle", 0.0, 0.0)], reps=1),
     ["--study", "calibration", "--reps", "1"], "reps must be >= 2"),
    (run_power_study, dict(reps=0), ["--study", "power", "--reps", "0"],
     "reps must be >= 1"),
    (run_robustness_study, dict(reps=1), ["--study", "robustness", "--reps", "1"],
     "reps must be >= 2"),
    (run_robustness_study, dict(reps=0), ["--study", "robustness", "--reps", "0"],
     "reps must be >= 2"),
    (run_diagnostic_study, dict(reps=0), None, "reps must be >= 1"),
    (run_calibration_study, dict(cells=[("oracle", 0.0, 0.0)], workers=0),
     ["--study", "calibration", "--workers", "0"], "workers must be >= 1"),
    (run_power_study, dict(workers=0), ["--study", "power", "--workers", "0"],
     "workers must be >= 1"),
    (run_robustness_study, dict(workers=-1), ["--study", "robustness", "--workers", "-1"],
     "workers must be >= 1"),
    (run_diagnostic_study, dict(workers=0), None, "workers must be >= 1"),
])
def test_studies_reject_undefined_statistics_and_bad_workers(study, kw, argv, message,
                                                             tmp_path, capsys):
    with pytest.raises(DomainError, match=message):
        study(**kw)
    if argv is not None:
        assert main(["simulate", *argv, "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_power_study_size_and_monotone_smoke():
    pts = run_power_study(distances=(0.0, 2.0), reps=40, n=400, seed=2)
    assert pts[0].rejection_rate < pts[1].rejection_rate
    assert pts[1].rejection_rate > 0.8


def test_robustness_contrast():
    ok = run_robustness_study(n_grid=(2000,), reps=120, seed=3,
                            constant_propensity=True)[0]
    bad = run_robustness_study(n_grid=(2000,), reps=120, seed=3,
                             constant_propensity=False)[0]
    assert (np.abs(ok.bias) <= 3.0 * ok.mc_se).all()
    assert (np.abs(bad.bias) > 3.0 * bad.mc_se).all()


def test_robustness_zero_delta_reduces_to_plain():
    rows = run_robustness_study(n_grid=(2000,), reps=60, seed=4, delta_scale=0.0,
                              constant_propensity=False)
    # without within-group heterogeneity even the non-constant arm is clean
    assert (np.abs(rows[0].bias) <= 3.0 * rows[0].mc_se).all()


def test_learner_specs_unknown():
    # a study's learner names a spec per role through learners.learner_spec
    for role in ("outcome", "propensity"):
        with pytest.raises(DomainError):
            learner_spec("mystery", role)
        with pytest.raises(DomainError):
            learner_spec("oracle", role, truth=None)
    assert learner_spec("ols-logistic", "outcome") == OlsSpec()
    assert learner_spec("ols-logistic", "propensity") == LogisticSpec()
