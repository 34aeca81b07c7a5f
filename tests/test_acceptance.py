"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The heavy Monte-Carlo criteria use fixed seeds, so results
are bit-reproducible.
"""

import time

import numpy as np

from ssls.cli import main
from ssls.clustering import KMeansSpec
from ssls.data import CrossFitPlan, Dataset, Grouping
from ssls.estimator import (
    NuisanceFit,
    SslsConfig,
    estimate_dssls,
    estimate_ssls,
)
from ssls.inference import (
    Contrast,
    glh_test,
    maxt_critical,
    simultaneous_cis,
)
from ssls.learners import KnownPropensity, OlsSpec
from ssls.rng import Stream
from ssls.simulation import (
    run_diagnostic_study,
    run_power_study,
    run_calibration_study,
    run_robustness_study,
)
from blobs import BlobConfig, draw_blobs
from ls_oracle import solve_transformed_ls, transformed_sample_from_nuisance
from ssls.data import GroupEffects


def criterion(num: int, ok: bool, description: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status}: {description} ({detail})")
    assert ok, f"criterion {num}: {description}: {detail}"


def test_criterion_01_oracle_calibration_cell():
    t0 = time.perf_counter()
    r = run_calibration_study([("oracle", 0.0, 0.0)], reps=500, n=1000, seed=0)[0]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(r.bias[0]) <= 0.02
        and 0.90 <= r.ese_ase_ratio[0] <= 1.12
        and 0.915 <= r.coverage <= 0.975
        and elapsed < 120
    )
    criterion(
        1, ok,
        "oracle nuisances, no random effects: unbiased, calibrated, covering",
        f"bias1={r.bias[0]:+.4f} (|.|<=0.02), ese/ase={r.ese_ase_ratio[0]:.3f} "
        f"(in [0.90,1.12]), coverage={r.coverage:.3f} (in [0.915,0.975]), "
        f"{elapsed:.0f}s",
    )


def test_criterion_02_cart_failure_mode():
    t0 = time.perf_counter()
    r = run_calibration_study([("cart", 0.0, 0.0)], reps=300, n=1000, seed=0)[0]
    elapsed = time.perf_counter() - t0
    ok = r.bias[0] >= 0.3 and r.coverage <= 0.85
    criterion(
        2, ok,
        "shallow CART nuisances are visibly biased with degraded coverage",
        f"bias1={r.bias[0]:+.4f} (>=0.3), coverage={r.coverage:.3f} (<=0.85), "
        f"{elapsed:.0f}s",
    )


def test_criterion_03_gbm_robustness():
    t0 = time.perf_counter()
    rows = run_calibration_study(
        [("gbm", 0.0, 0.0), ("gbm", 1.0, 0.0)], reps=300, n=1000, seed=0
    )
    elapsed = time.perf_counter() - t0
    iid, clustered = rows
    ok = (
        abs(iid.bias[0]) <= 0.05
        and iid.coverage >= 0.93
        and clustered.coverage >= 0.88
    )
    iid_bias, clustered_bias = (" ".join(f"bias{g}={b:+.4f}"
                                         for g, b in enumerate(r.bias, start=1))
                                for r in rows)
    criterion(
        3, ok,
        "boosted-tree nuisances stay calibrated, even under treatment clustering",
        f"sA=0: {iid_bias} (|bias1|<=0.05) coverage={iid.coverage:.3f} (>=0.93); "
        f"sA=1: {clustered_bias} coverage={clustered.coverage:.3f} (>=0.88), "
        f"{elapsed:.0f}s",
    )


def test_criterion_04_maxt_critical_values():
    q45 = maxt_critical(0.05, 45)
    q1 = maxt_critical(0.05, 1)
    ok = abs(q45 - 3.254) <= 1e-3 and abs(q1 - 1.95996) <= 1e-4
    criterion(
        4, ok,
        "simultaneous critical values at G=45 and G=1",
        f"q(0.05,45)={q45:.4f} (3.254 +/- 0.001), q(0.05,1)={q1:.5f} "
        f"(1.95996 +/- 1e-4)",
    )


def test_criterion_05_fwer_exactness():
    t0 = time.perf_counter()
    reps = 10_000
    bound = 3.0 * np.sqrt(0.05 * 0.95 / reps)
    details = []
    ok = True
    for g in (4, 10, 45):
        z = Stream(17).child("fwer").child(g).normal(reps * g).reshape(reps, g)
        fwer = float((np.abs(z) > maxt_critical(0.05, g)).any(axis=1).mean())
        details.append(f"G={g}: {fwer:.4f}")
        ok = ok and abs(fwer - 0.05) <= bound
    criterion(
        5, ok,
        "familywise error of the maxT rule on exact normal draws",
        f"{', '.join(details)} (each within 0.05 +/- {bound:.4f}), "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_06_closed_form_equals_generic_ls():
    t0 = time.perf_counter()
    s = Stream(23).child("equiv")
    worst_tau = 0.0
    worst_sigma = 0.0
    worst_offdiag = 0.0
    for i in range(1000):
        inst = s.child(i)
        n_groups = 1 + int(inst.child("G").integers(1, 6)[0])
        n = max(2 * n_groups, 8 + int(inst.child("n").integers(1, 193)[0]))
        labels = 1 + inst.child("lab").integers(n, n_groups)
        # the first 2G rows give every group a control and a treated row
        labels[:2 * n_groups] = np.tile(np.arange(1, n_groups + 1), 2)
        a = inst.child("a").bernoulli(0.5, n).astype(float)
        a[:2 * n_groups] = np.repeat([0.0, 1.0], n_groups)
        grouping = Grouping(labels, n_groups)
        d = Dataset(
            y=3.0 * inst.child("y").normal(n),
            a=a,
            x=inst.child("x").normal(n)[:, None],
        )
        nf = NuisanceFit(
            m_hat=inst.child("m").normal(n),
            e_hat=0.05 + 0.9 * inst.child("e").uniform(n),
            fold_of=np.zeros(n, dtype=int),
        )
        ge = estimate_ssls(d, grouping, nf)
        ls = solve_transformed_ls(transformed_sample_from_nuisance(d, grouping, nf))
        scale_tau = np.maximum(np.abs(ge.tau_hat), 1e-12)
        scale_sig = np.maximum(np.abs(ge.sigma_gg_hat), 1e-12)
        worst_tau = max(worst_tau, (np.abs(ge.tau_hat - ls.beta_hat) / scale_tau).max())
        worst_sigma = max(
            worst_sigma,
            (np.abs(ge.sigma_gg_hat - np.diag(ls.sigma_hat)) / scale_sig).max(),
        )
        off = ls.gram - np.diag(np.diag(ls.gram))
        worst_offdiag = max(worst_offdiag, np.abs(off).max())
    ok = worst_tau <= 1e-10 and worst_sigma <= 1e-10 and worst_offdiag == 0.0
    criterion(
        6, ok,
        "closed form matches the generic engine on 1000 random instances",
        f"max rel diff tau={worst_tau:.2e}, sigma={worst_sigma:.2e} (<=1e-10), "
        f"max gram off-diagonal={worst_offdiag} (exactly 0), "
        f"{time.perf_counter() - t0:.0f}s",
    )


def test_criterion_07_diagnostic_reproduction():
    t0 = time.perf_counter()
    res = run_diagnostic_study(reps=50, n=10_000, bandwidth=0.05, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        res.misspecified_overlap_rate >= 0.90
        and res.correct_small_flag_rate >= 0.90
        and elapsed < 120
    )
    criterion(
        7, ok,
        "wrong grouping flagged in its straddled band; right grouping stays clean",
        f"misspecified overlap rate={res.misspecified_overlap_rate:.2f} (>=0.90), "
        f"correct <5%-flag rate={res.correct_small_flag_rate:.2f} (>=0.90), "
        f"{elapsed:.0f}s",
    )


def test_criterion_08_power_curve_shape():
    t0 = time.perf_counter()
    points = run_power_study(
        distances=(0.0, 0.4, 0.8, 1.2, 1.6, 2.0), reps=200, n=1000, seed=0
    )
    elapsed = time.perf_counter() - t0
    size = points[0].rejection_rate
    powers = [p.rejection_rate for p in points]
    max_drop = max(
        (a - b for a, b in zip(powers, powers[1:])), default=0.0
    )
    ok = (
        abs(size - 0.05) <= 0.03
        and max_drop <= 0.05
        and points[-1].rejection_rate > 0.9
        and elapsed < 300
    )
    criterion(
        8, ok,
        "maxT test: nominal size at the null, rising to full power",
        f"size={size:.3f} (0.05 +/- 0.03), max adjacent drop={max_drop:.3f} "
        f"(<=0.05), power@2.0={points[-1].rejection_rate:.3f} (>0.9), "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_constant_propensity_robustness():
    t0 = time.perf_counter()
    ok_row = run_robustness_study(
        n_grid=(5000,), reps=500, seed=0, constant_propensity=True
    )[0]
    bad_row = run_robustness_study(
        n_grid=(5000,), reps=500, seed=0, constant_propensity=False
    )[0]
    elapsed = time.perf_counter() - t0
    ok = (
        (np.abs(ok_row.bias) <= 2.0 * ok_row.mc_se).all()
        and (np.abs(bad_row.bias) > 3.0 * bad_row.mc_se).all()
        and elapsed < 180
    )
    criterion(
        9, ok,
        "group-constant propensity absorbs within-group effect heterogeneity",
        f"constant: |bias|={np.abs(ok_row.bias).max():.4f} vs 2*mcse="
        f"{(2 * ok_row.mc_se).min():.4f}; non-constant: |bias|="
        f"{np.abs(bad_row.bias).min():.4f} vs 3*mcse={(3 * bad_row.mc_se).max():.4f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_glh_size():
    t0 = time.perf_counter()
    reps = 10_000
    n_groups = 4
    contrast = Contrast.pairwise_differences(n_groups)
    stream = Stream(29).child("glh")
    rejects = 0
    rank_seen = set()
    for _ in range(reps):
        ge = GroupEffects(
            tau_hat=stream.normal(n_groups),
            sigma_gg_hat=np.ones(n_groups),
            n_g=np.ones(n_groups, dtype=np.int64),
            n_effective=1,
            residuals=np.zeros(n_groups),
        )
        res = glh_test(ge, contrast, alpha=0.05)
        rank_seen.add(res.rank)
        rejects += int(res.reject)
    rate = rejects / reps
    ok = abs(rate - 0.05) <= 0.01 and rank_seen == {3}
    criterion(
        10, ok,
        "general-linear-hypothesis chi-square test holds its size",
        f"rejection rate={rate:.4f} (0.05 +/- 0.01), rank(R)={rank_seen} "
        f"(rank-deficient pseudo-inverse path), {time.perf_counter() - t0:.0f}s",
    )


def test_criterion_11_discovered_group_coverage():
    t0 = time.perf_counter()
    covered = []
    for rep in range(300):
        s = Stream(31).child("dssls").child(rep)
        d, g_true, tau = draw_blobs(BlobConfig(n=900), stream=s.child("data"))
        cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5),
                         CrossFitPlan(seed=s.child("plan").key))
        res = estimate_dssls(
            d, KMeansSpec(n_groups=2, seed=s.child("km").key, min_group_size=25),
            cfg,
        )
        true_est = g_true.labels[res.estimation_indices]
        matched = np.empty(2)
        for g in (1, 2):
            votes = np.bincount(true_est[res.grouping.labels == g], minlength=3)[1:]
            matched[g - 1] = tau[int(np.argmax(votes))]
        rep_r = simultaneous_cis(res.effects)
        covered.append(bool(np.all(
            (rep_r.ci_simul_lo <= matched) & (matched <= rep_r.ci_simul_hi)
        )))
    coverage = float(np.mean(covered))
    elapsed = time.perf_counter() - t0
    ok = 0.92 <= coverage <= 0.98 and elapsed < 120
    criterion(
        11, ok,
        "discovery third spent, intervals on the remaining two thirds still cover",
        f"coverage={coverage:.3f} (in [0.92,0.98]) over 300 reps, {elapsed:.0f}s",
    )


def _write_toy_csv(path):
    rows = [
        ("y", "a", "grp", "x1"),
        (3.1, 1, "g1", 0.10), (2.9, 1, "g1", 0.35),
        (3.4, 1, "g1", 0.50), (2.6, 1, "g1", 0.80),
        (1.2, 0, "g1", 0.15), (0.8, 0, "g1", 0.40),
        (1.1, 0, "g1", 0.60), (0.9, 0, "g1", 0.95),
        (5.1, 1, "g2", 0.20), (4.9, 1, "g2", 0.45),
        (5.4, 1, "g2", 0.55), (4.6, 1, "g2", 0.85),
        (1.2, 0, "g2", 0.25), (0.8, 0, "g2", 0.50),
        (1.1, 0, "g2", 0.70), (0.9, 0, "g2", 0.90),
    ]
    path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "toy.csv"
    _write_toy_csv(data)

    def run_estimate(out):
        code = main([
            "estimate", "--data", str(data), "--outcome", "y",
            "--treatment", "a", "--group", "grp", "--covariates", "x1",
            "--propensity", "0.5", "--learner-y", "ols",
            "--repeats", "5", "--seed", "7", "--out-dir", str(out),
        ])
        assert code == 0

    run_estimate(tmp_path / "est1")
    run_estimate(tmp_path / "est2")
    estimate_identical = all(
        (tmp_path / "est1" / name).read_bytes()
        == (tmp_path / "est2" / name).read_bytes()
        for name in ("report.json", "groups.csv", "residuals_raw.csv",
                     "residuals_smooth.csv")
    )

    def run_power(out, workers):
        code = main([
            "simulate", "--study", "power", "--reps", "20", "--n", "300",
            "--distances", "0,1.0,2.0", "--seed", "5",
            "--workers", str(workers), "--out-dir", str(out),
        ])
        assert code == 0

    run_power(tmp_path / "sim1", 1)
    run_power(tmp_path / "sim4", 4)
    run_power(tmp_path / "sim1b", 1)
    simulate_identical = (
        (tmp_path / "sim1" / "power.csv").read_bytes()
        == (tmp_path / "sim4" / "power.csv").read_bytes()
        == (tmp_path / "sim1b" / "power.csv").read_bytes()
    )
    ok = estimate_identical and simulate_identical
    criterion(
        12, ok,
        "fixed seeds give byte-identical outputs across runs and worker counts",
        f"estimate twice identical={estimate_identical}, simulate workers "
        f"{{1,4}} identical={simulate_identical}, {time.perf_counter() - t0:.0f}s",
    )
