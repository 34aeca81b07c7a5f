"""Command-line behavior: artifacts, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from ssls import estimator
from ssls.cli import _fmt, _load, build_parser, main, write_csv
from ssls.clustering import KMeansSpec, fit_kmeans
from ssls.data import CrossFitPlan, Grouping, load_csv, make_crossfit_plan
from ssls.estimator import SslsConfig, _three_way_split
from ssls.learners import KnownPropensity, OlsSpec
from ssls.rng import Stream
from ssls.simulation import Dgp1Config, draw_dgp1
from blobs import BlobConfig, draw_blobs


@pytest.fixture
def toy_csv(tmp_path):
    """Eight rows, one group, known propensity 0.5, balanced arms."""
    path = tmp_path / "toy.csv"
    rows = [
        ("y", "a", "grp", "x1"),
        (3.1, 1, "all", 0.10),
        (2.9, 1, "all", 0.35),
        (3.4, 1, "all", 0.50),
        (2.6, 1, "all", 0.80),
        (1.2, 0, "all", 0.15),
        (0.8, 0, "all", 0.40),
        (1.1, 0, "all", 0.60),
        (0.9, 0, "all", 0.95),
    ]
    path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    return path


def estimate_args(toy_csv, out_dir, extra=()):
    return [
        "estimate",
        "--data", str(toy_csv),
        "--outcome", "y",
        "--treatment", "a",
        "--group", "grp",
        "--covariates", "x1",
        "--propensity", "0.5",
        "--learner-y", "ols",
        "--seed", "7",
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_estimate_toy_fixture(toy_csv, tmp_path):
    out = tmp_path / "out"
    assert main(estimate_args(toy_csv, out)) == 0
    report = json.loads((out / "report.json").read_text())
    tau = report["effects"]["groups"][0]["tau_hat"]

    # with e = 0.5 and balanced arms, the estimate is the difference in
    # Robinson-residual means; reconstruct it from the emitted residuals
    with open(out / "residuals_raw.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    resid = np.array([float(r["residual"]) for r in rows])
    arm = np.array([int(r["arm"]) for r in rows])
    # residual = (y - m) - (a - e) tau, so (y - m) = residual + (a - e) tau
    robinson = resid + (arm - 0.5) * tau
    # residuals in the CSV carry 6 significant digits
    assert tau == pytest.approx(robinson[arm == 1].mean() - robinson[arm == 0].mean(),
                                abs=1e-4)

    assert (out / "groups.csv").exists()
    assert (out / "residuals_smooth.csv").exists()
    assert report["group_relabeling"] == {"all": 1}
    assert report["effects"]["groups"][0]["p_value"] <= 1.0


def test_estimate_missing_column(toy_csv, tmp_path, capsys):
    args = estimate_args(toy_csv, tmp_path / "out")
    args[args.index("--treatment") + 1] = "not_there"
    assert main(args) == 2
    assert "not_there" in capsys.readouterr().err


def test_estimate_non_finite_outcome_exit_2(toy_csv, tmp_path, capsys):
    lines = toy_csv.read_text().splitlines()
    lines[3] = "nan" + lines[3][lines[3].index(","):]
    toy_csv.write_text("\n".join(lines) + "\n")
    assert main(estimate_args(toy_csv, tmp_path / "out")) == 2
    assert "non-finite value at row 4, column 'y'" in capsys.readouterr().err


def test_estimate_repeats_deterministic(toy_csv, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(estimate_args(toy_csv, out1, ["--repeats", "5"])) == 0
    assert main(estimate_args(toy_csv, out2, ["--repeats", "5"])) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "groups.csv").read_bytes() == (out2 / "groups.csv").read_bytes()


def test_estimate_with_contrast(toy_csv, tmp_path):
    contrast = tmp_path / "contrast.csv"
    contrast.write_text("1,0\n")  # K = [1], m0 = 0
    out = tmp_path / "out"
    assert main(estimate_args(toy_csv, out, ["--contrast", str(contrast)])) == 0
    report = json.loads((out / "report.json").read_text())
    assert "contrast_test" in report
    assert report["contrast_test"]["rank"] == 1


@pytest.fixture
def blob_csv(tmp_path):
    d, g, tau = draw_blobs(BlobConfig(n=600), stream=Stream(42).child("cli"))
    path = tmp_path / "blobs.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "a", "x1", "x2"])
        for i in range(d.n):
            writer.writerow([d.y[i], int(d.a[i]), d.x[i, 0], d.x[i, 1]])
    return path


def discover_args(blob_csv, out_dir, extra=()):
    return [
        "discover",
        "--data", str(blob_csv),
        "--outcome", "y",
        "--treatment", "a",
        "--covariates", "x1,x2",
        "--propensity", "0.5",
        "--learner-y", "ols",
        "--groups", "2",
        "--seed", "3",
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_discover_blobs(blob_csv, tmp_path):
    out = tmp_path / "disc"
    assert main(discover_args(blob_csv, out)) == 0
    with open(out / "groups.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400  # two thirds of 600
    assert {r["label"] for r in rows} == {"1", "2"}
    with open(out / "centroids.csv") as fh:
        centroids = list(csv.DictReader(fh))
    assert len(centroids) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["n_clustering"] == 200


def test_discover_reports_how_the_clustering_stopped(blob_csv, tmp_path):
    out = tmp_path / "disc"
    assert main(discover_args(blob_csv, out)) == 0
    block = json.loads((out / "report.json").read_text())["clustering"]
    d, _, _, _ = load_csv(str(blob_csv), outcome="y", treatment="a",
                          covariates=["x1", "x2"])
    fc = fit_kmeans(d.x[_three_way_split(d.n, 3)[0]], KMeansSpec(n_groups=2, seed=3))
    assert block == {
        "n_restarts": 10,
        "restart": fc.restart,
        "lloyd_iterations": len(fc.inertia_path),
        "converged": True,
        "inertia": fc.inertia,
        "max_iter": 100,
        "restarts_at_max_iter": 0,
    }


def test_discover_gate_failure_exit_3(blob_csv, tmp_path, capsys):
    args = discover_args(blob_csv, tmp_path / "disc")
    args += ["--min-group-size", "500"]  # unattainable on a 400-row estimation set
    assert main(args) == 3
    assert "group" in capsys.readouterr().err.lower()


def test_discover_deterministic(blob_csv, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(discover_args(blob_csv, out1)) == 0
    assert main(discover_args(blob_csv, out2)) == 0
    assert (out1 / "groups.csv").read_bytes() == (out2 / "groups.csv").read_bytes()


def test_discover_repeats_take_componentwise_medians(blob_csv, tmp_path):
    # discover estimates as estimate does: the clustering third is drawn
    # once, and the folds on the estimation two thirds once per repeat
    out1, out3 = tmp_path / "r1", tmp_path / "r3"
    assert main(discover_args(blob_csv, out1)) == 0
    assert main(discover_args(blob_csv, out3, ["--repeats", "3"])) == 0
    one = json.loads((out1 / "report.json").read_text())
    three = json.loads((out3 / "report.json").read_text())
    assert (out1 / "groups.csv").read_bytes() == (out3 / "groups.csv").read_bytes()
    assert one["plan"]["aggregation"] == "single-run"
    assert three["plan"]["repeats"] == 3
    assert three["plan"]["aggregation"] == "componentwise-median"
    assert {"data", "columns", "nuisance_quality", "n_total", "n_clustering",
            "n_estimation"} <= three.keys()
    assert "group_relabeling" not in three
    tau3 = [g["tau_hat"] for g in three["effects"]["groups"]]
    assert tau3 != [g["tau_hat"] for g in one["effects"]["groups"]]

    d, _, _, _ = load_csv(str(blob_csv), outcome="y", treatment="a",
                          covariates=["x1", "x2"])
    with open(out1 / "groups.csv") as fh:
        rows = list(csv.DictReader(fh))
    est_idx = np.array([int(r["row"]) for r in rows])
    assert np.array_equal(est_idx, _three_way_split(d.n, 3)[1])
    d_est = d.subset(est_idx)
    grouping = Grouping([int(r["label"]) for r in rows], 2)
    root = Stream(3).child("dssls-estimation")
    taus = []
    cfg = SslsConfig(OlsSpec(), KnownPropensity(0.5), CrossFitPlan(stratified=True))
    for seed in (root.key, root.child(1).key, root.child(2).key):
        fold_of = make_crossfit_plan(d_est.n, cfg.plan, grouping=grouping, seed=seed)
        nf = estimator.crossfit_nuisance(d_est, cfg, grouping, fold_of=fold_of)
        taus.append(estimator.estimate_ssls(d_est, grouping, nf).tau_hat)
    assert tau3 == np.median(taus, axis=0).tolist()


@pytest.mark.parametrize("command", ["estimate", "discover"])
@pytest.mark.parametrize("flag, value, message", [
    ("--repeats", "0", "repeats must be >= 1"),
    ("--folds", "1", "n_folds must be >= 2, got 1"),
    ("--folds", "0", "n_folds must be >= 2, got 0"),
])
def test_bad_plan_setting_exit_2_before_fitting(toy_csv, blob_csv, tmp_path, capsys,
                                                monkeypatch, command, flag, value,
                                                message):
    def fail(*args, **kwargs):
        raise AssertionError("a model was fitted")
    for name in ("fit_kmeans", "fit_regression", "fit_propensity"):
        monkeypatch.setattr(estimator, name, fail)
    out = tmp_path / "out"
    args = (estimate_args(toy_csv, out, [flag, value]) if command == "estimate"
            else discover_args(blob_csv, out, [flag, value]))
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.glob("*")) == []


_ESTIMATE_ONLY_FLAGS = ("--group", "--bandwidth", "--grid-size", "--flag-multiplier",
                        "--diag-covariate")
_SETTINGS_NAMED = [
    ("--folds", "1", "n_folds"),
    ("--repeats", "0", "repeats"),
    ("--alpha", "0", "alpha"),
    ("--alpha", "nan", "alpha"),
    ("--learner-y", "nope", "outcome learner"),
    ("--learner-e", "nope", "propensity learner"),
    ("--propensity", "1.5", "propensity"),
    ("--bandwidth", "0", "bandwidth"),
    ("--grid-size", "0", "grid size"),
    ("--flag-multiplier", "-1", "multiplier"),
    ("--diag-covariate", "1", "covariate index"),
]


@pytest.mark.parametrize("command, flag, value, named", [
    *[(command, *case) for command in ("estimate", "discover", "diagnose")
      for case in _SETTINGS_NAMED],
    ("discover", "--groups", "1", "n_groups"),
    ("discover", "--min-group-size", "0", "min_group_size"),
    ("discover", "--group", "4", None),
])
def test_bad_setting_named_before_the_csv_is_read(tmp_path, capsys, command, flag,
                                                  value, named):
    missing = tmp_path / "missing.csv"
    args = [command, "--data", str(missing), "--outcome", "y", "--treatment", "a",
            "--covariates", "x1", "--out-dir", str(tmp_path / "out"),
            *(["--groups", "2"] if command == "discover" else ["--group", "grp"])]
    if command == "discover" and flag in _ESTIMATE_ONLY_FLAGS:
        # discover finds its own groups and runs no smoother, so it takes
        # neither --group nor a smoother flag, on the command line or from a
        # config file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        for argv in ([*args, flag, value], ["--config", str(config), *args]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag} {value}" in err
            assert "missing.csv" not in err
    else:
        assert main([*args, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "missing.csv" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_estimate_without_group_exits_2_before_the_csv_is_read(tmp_path, capsys, command):
    args = estimate_args(tmp_path / "missing.csv", tmp_path / "out")
    args[0] = command
    del args[args.index("--group"):args.index("--group") + 2]
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "required: --group" in err and "missing.csv" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1.5", "nan"])
def test_constant_propensity_out_of_range_exit_2(toy_csv, tmp_path, capsys, value):
    args = estimate_args(toy_csv, tmp_path / "out")
    args[args.index("--propensity") + 1] = value
    assert main(args) == 2
    assert "outside (0, 1)" in capsys.readouterr().err


def _add_propensity_column(path, bad_row):
    """Append a column ps of 0.5, with 1.0 at data row bad_row (0-based)."""
    lines = path.read_text().splitlines()
    lines[0] += ",ps"
    for i in range(1, len(lines)):
        lines[i] += ",1.0" if i - 1 == bad_row else ",0.5"
    path.write_text("\n".join(lines) + "\n")


def test_estimate_propensity_column_out_of_range_exit_2(toy_csv, tmp_path, capsys):
    _add_propensity_column(toy_csv, bad_row=5)
    args = estimate_args(toy_csv, tmp_path / "out")
    args[args.index("--propensity") + 1] = "ps"
    assert main(args) == 2
    assert "outside (0, 1) at row 5" in capsys.readouterr().err


def test_discover_propensity_column_checked_on_clustering_rows(blob_csv, tmp_path,
                                                               capsys):
    # the bad row feeds only k-means, never the estimation two thirds
    cluster_idx, _ = _three_way_split(600, 3)
    bad = int(cluster_idx[0])
    _add_propensity_column(blob_csv, bad_row=bad)
    args = discover_args(blob_csv, tmp_path / "disc")
    args[args.index("--propensity") + 1] = "ps"
    assert main(args) == 2
    assert f"outside (0, 1) at row {bad}" in capsys.readouterr().err


def test_simulate_calibration_smoke(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--study", "calibration", "--reps", "2", "--n", "200",
        "--seed", "1", "--out-dir", str(out),
    ])
    assert code == 0
    with open(out / "calibration.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8  # one learner x two sigma_a cells x four groups


def test_simulate_power_grid(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--study", "power", "--reps", "5", "--n", "200",
        "--distances", "0,1.0,2.0", "--seed", "1", "--out-dir", str(out),
    ])
    assert code == 0
    with open(out / "power.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [r["distance"] for r in rows] == ["0", "1", "2"]


def test_simulate_diagnostic_file_contract(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--study", "diagnostic", "--n", "2000",
        "--seed", "1", "--out-dir", str(out),
    ])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "residuals_raw_correct.csv",
        "residuals_raw_misspecified.csv",
        "residuals_smooth_correct.csv",
        "residuals_smooth_misspecified.csv",
    ]


def test_simulate_unknown_study_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--study", "nope", "--out-dir", str(tmp_path)])
    assert err.value.code == 2


def test_power_command(capsys):
    assert main(["power", "--ztilde", "1"]) == 0
    assert "minimum group size: 8" in capsys.readouterr().out
    assert main(["power", "--ztilde", "2.8016"]) == 0
    assert "minimum group size: 1" in capsys.readouterr().out


def test_power_command_domain_error():
    assert main(["power", "--ztilde", "0"]) == 2


def test_config_file_precedence(toy_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ztilde": 1.0}))
    # config supplies the value; an explicit flag would win over it
    assert main(["--config", str(config), "power"]) == 0
    assert "minimum group size: 8" in capsys.readouterr().out
    assert main(["--config", str(config), "power", "--ztilde", "2.8016"]) == 0
    assert "minimum group size: 1" in capsys.readouterr().out


def _config_run(toy_csv, tmp_path, values, before=(), after=()):
    """Run estimate on the toy CSV with a JSON config file; return the exit
    code and the report's plan, or None when the run failed."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "out"
    args = estimate_args(toy_csv, out)
    for flag in ("--seed", "--learner-y"):  # left to the file
        del args[args.index(flag):args.index(flag) + 2]
    rc = main([*before, "estimate", *args[1:], *after])
    plan = json.loads((out / "report.json").read_text())["plan"] if rc == 0 else None
    return rc, plan


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"],
                                      ["--conf", "{}"]])
def test_config_file_read_in_every_spelling(toy_csv, tmp_path, spelling):
    # eight rows are too few for the default gbm outcome, so exit 0 shows
    # that the file's ols was used, and the plan shows the file's seed
    path = str(tmp_path / "config.json")
    before = [part.format(path) for part in spelling]
    rc, plan = _config_run(toy_csv, tmp_path, {"seed": 5, "learner_y": "ols"}, before)
    assert rc == 0 and plan["seed"] == 5


@pytest.mark.parametrize("flags, seed, stratified", [
    (["--seed=7"], 7, True), (["--seed", "7"], 7, True), (["--see", "7"], 7, True),
    (["--no-stratified"], 5, False),
])
def test_config_file_explicit_flags_win(toy_csv, tmp_path, flags, seed, stratified):
    values = {"seed": 5, "learner-y": "ols", "stratified": True}
    rc, plan = _config_run(toy_csv, tmp_path, values,
                           ["--config", str(tmp_path / "config.json")], flags)
    assert rc == 0
    assert (plan["seed"], plan["stratified"]) == (seed, stratified)


@pytest.mark.parametrize("argv", [["--config"], ["power", "--ztilde", "1", "--config"]])
def test_config_flag_without_path_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "5", '"seed"', "null"])
def test_config_file_not_an_object_exit_2(toy_csv, tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["--config", str(config), "power", "--ztilde", "1"]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("values", [{"nope": 1}, {"folds": "two"}])
def test_config_file_unknown_key_or_bad_value_exit_2(toy_csv, tmp_path, values):
    with pytest.raises(SystemExit) as err:
        _config_run(toy_csv, tmp_path, dict(values, learner_y="ols"),
                    ["--config", str(tmp_path / "config.json")])
    assert err.value.code == 2


@pytest.mark.parametrize("flag, name, message", [
    ("--learner-y", "Foo", "unknown outcome learner 'foo' "
                           "(expected ols, ridge[:lam], cart, gbm)"),
    ("--learner-y", "oracle", "unknown outcome learner 'oracle' "
                              "(expected ols, ridge[:lam], cart, gbm)"),
    ("--learner-e", "ols", "unknown propensity learner 'ols' "
                           "(expected logistic, cart, gbm)"),
    ("--learner-y", "ridgefoo", "unknown outcome learner 'ridgefoo' "
                                "(expected ols, ridge[:lam], cart, gbm)"),
    ("--learner-y", "ridge:abc", "ridge penalty must be a number, got 'abc'"),
    ("--learner-y", "ridge:nan", "ridge penalty must be finite, got nan"),
    ("--learner-y", "ridge:inf", "ridge penalty must be finite, got inf"),
])
def test_unknown_learner_name_exit_2(toy_csv, tmp_path, capsys, flag, name, message):
    args = estimate_args(toy_csv, tmp_path / "out")
    del args[args.index("--propensity"):args.index("--propensity") + 2]
    assert main([*args, flag, name]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_diagnose_outputs(toy_csv, tmp_path):
    # diagnose is another name for estimate: the same files from one run,
    # which differ only in the command each names; both take --contrast
    contrast = tmp_path / "K.csv"
    contrast.write_text("1,0\n")
    outputs = {}
    for command in ("estimate", "diagnose"):
        args = estimate_args(toy_csv, tmp_path / command, ["--contrast", str(contrast)])
        args[0] = command
        assert main(args) == 0
        outputs[command] = {f.name: f.read_text() for f in (tmp_path / command).iterdir()}
    assert sorted(outputs["diagnose"]) == ["groups.csv", "report.json",
                                           "residuals_raw.csv", "residuals_smooth.csv"]
    for name, text in outputs["estimate"].items():
        assert outputs["diagnose"][name] == text.replace('"command": "estimate"',
                                                         '"command": "diagnose"')
    report = json.loads(outputs["diagnose"]["report.json"])
    assert "contrast_test" in report
    assert list(report["diagnostics"]) == ["covariate_index", "bandwidth", "flag_multiplier",
                                           "flagged_regions", "nan_grid_points"]
    assert report["command"] == "diagnose"


def test_estimate_flag_multiplier_takes_effect(dgp1_csv, tmp_path):
    regions = {}
    for multiplier in ("0", "8", "1e9"):
        out = tmp_path / multiplier
        assert main(["estimate", "--data", str(dgp1_csv), "--outcome", "y",
                     "--treatment", "a", "--group", "g", "--covariates", "x1,x2,x3",
                     "--learner-y", "ols", "--flag-multiplier", multiplier,
                     "--out-dir", str(out)]) == 0
        flags = json.loads((out / "report.json").read_text())["diagnostics"]
        assert flags["flag_multiplier"] == float(multiplier)
        regions[multiplier] = flags["flagged_regions"]
    assert regions["1e9"] == {"0": [], "1": []}
    assert regions["0"] != regions["8"]


def test_groups_csv_is_the_reports_per_group_table(dgp1_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(dgp1_csv), "--outcome", "y", "--treatment", "a",
                 "--group", "g", "--covariates", "x1,x2,x3", "--learner-y", "ols",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "inference" not in report
    rows = report["effects"]["groups"]
    with open(out / "groups.csv", newline="") as fh:
        header, *cells = list(csv.reader(fh))
    assert header == list(rows[0])
    assert len(cells) == len(rows) == 4
    for row, line in zip(rows, cells):
        assert list(row) == header
        for value, cell in zip(row.values(), line, strict=True):
            if isinstance(value, float):
                assert cell == f"{value:.6g}"
            else:
                assert cell == str(int(value))


def test_unsupported_grid_points_are_counted_without_a_nan_in_the_report(dgp1_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(dgp1_csv), "--outcome", "y", "--treatment", "a",
                 "--group", "g", "--covariates", "x1,x2,x3", "--learner-y", "ols",
                 "--bandwidth", "1e-300", "--out-dir", str(out)]) == 0

    def no_constant(name):
        raise AssertionError(f"report.json holds {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
    with open(out / "residuals_smooth.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    nan_points = report["diagnostics"]["nan_grid_points"]
    for arm in ("0", "1"):
        assert nan_points[arm] == sum(r["curve"] == "nan" for r in rows if r["arm"] == arm)
        assert 0 < nan_points[arm] < 200
    assert report["diagnostics"]["flagged_regions"] == {"0": [], "1": []}


@pytest.mark.parametrize("command, flag, value, message", [
    ("diagnose", "--bandwidth", "nan", "bandwidth must be finite and positive, got nan"),
    ("diagnose", "--bandwidth", "inf", "bandwidth must be finite and positive, got inf"),
    ("estimate", "--bandwidth", "0", "bandwidth must be finite and positive, got 0.0"),
    ("diagnose", "--grid-size", "0", "grid size must be at least 1, got 0"),
    ("estimate", "--grid-size", "-1", "grid size must be at least 1, got -1"),
    ("diagnose", "--diag-covariate", "9", "covariate index 9 out of range"),
    ("estimate", "--diag-covariate", "-1", "covariate index -1 out of range"),
    ("diagnose", "--flag-multiplier", "-1",
     "sd multiplier must be finite and non-negative, got -1.0"),
    ("diagnose", "--flag-multiplier", "nan",
     "sd multiplier must be finite and non-negative, got nan"),
])
def test_bad_diagnostic_setting_exit_2(toy_csv, tmp_path, capsys, command, flag, value,
                                       message):
    args = estimate_args(toy_csv, tmp_path / "out", [flag, value])
    args[0] = command
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # every output is computed before the first is written
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
def test_alpha_outside_unit_interval_exit_2(toy_csv, tmp_path, capsys, monkeypatch,
                                            command, alpha):
    fits = []
    monkeypatch.setattr(estimator, "crossfit_nuisance", lambda *a, **kw: fits.append(1))
    args = estimate_args(toy_csv, tmp_path / "out", ["--alpha", alpha])
    args[0] = command
    assert main(args) == 2
    assert "error: alpha must lie in (0, 1)" in capsys.readouterr().err
    assert not fits  # rejected before anything is fitted or written
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_an_alpha_whose_quantile_rounds_away_exit_2(toy_csv, tmp_path, capsys, command):
    args = estimate_args(toy_csv, tmp_path / "out", ["--alpha", "1e-300"])
    args[0] = command
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: alpha 1e-300 is too small: 1 - alpha/2 rounds to 1, so its normal "
        "quantile cannot be computed\n")
    assert not (tmp_path / "out").exists()


@pytest.fixture
def dgp1_csv(tmp_path):
    d, g, _ = draw_dgp1(Dgp1Config(n=300), stream=Stream(5).child("cli"))
    path = tmp_path / "dgp1.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "a", "g", "x1", "x2", "x3"])
        for i in range(d.n):
            writer.writerow([d.y[i], int(d.a[i]), g.labels[i], *d.x[i, :3]])
    return path


def _refit_split0_mse(argv):
    """The nuisance-quality figure as once computed: a fresh split-0 refit."""
    d, g, _, _, cfg = _load(build_parser().parse_args(argv), estimate=True)
    seed0 = Stream(cfg.plan.seed).child("repeat").child(0).key
    fold_of = make_crossfit_plan(d.n, cfg.plan, grouping=g, seed=seed0)
    nf = estimator.crossfit_nuisance(d, cfg, grouping=g, fold_of=fold_of)
    return float(np.mean((d.y - nf.m_hat) ** 2))


@pytest.mark.parametrize("command, learner", [("estimate", "gbm"), ("diagnose", "ols")])
def test_nuisance_quality_reads_the_split0_fit(dgp1_csv, tmp_path, monkeypatch,
                                               command, learner):
    out = tmp_path / "out"
    argv = [command, "--data", str(dgp1_csv), "--outcome", "y", "--treatment", "a",
            "--group", "g", "--covariates", "x1,x2,x3", "--learner-y", learner,
            "--repeats", "3", "--seed", "4", "--out-dir", str(out)]
    expected = _refit_split0_mse(argv)
    calls = []
    crossfit = estimator.crossfit_nuisance
    monkeypatch.setattr(estimator, "crossfit_nuisance",
                        lambda *a, **kw: calls.append(1) or crossfit(*a, **kw))
    assert main(argv) == 0
    assert len(calls) == 3  # one cross-fit per repeat, none refitted
    quality = json.loads((out / "report.json").read_text())["nuisance_quality"]
    assert quality["outcome_oof_mse"] == expected


def test_estimate_zero_variance_group_exit_2(dgp1_csv, tmp_path, capsys):
    # a constant zero outcome leaves every residual at zero: a named input
    # error from the estimator, not a NaN deep in inference
    with open(dgp1_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[0] = "0.0"
    flat = tmp_path / "flat.csv"
    with open(flat, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    argv = ["estimate", "--data", str(flat), "--outcome", "y", "--treatment", "a",
            "--group", "g", "--covariates", "x1,x2,x3", "--learner-y", "ols",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "error: group 1 has plug-in variance 0.000e+00" in capsys.readouterr().err


def _per_row_write_csv(path, rows):
    """The row-dict writer write_csv replaced, kept as its oracle."""
    if not rows:
        path.write_text("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])


def test_write_csv_bytes_match_per_row_writer(tmp_path):
    floats = np.array([0.1, -0.0, 1 / 3, 1e-300, 123456789.0, np.nan, np.inf,
                       -np.inf, 5e-324])
    n = floats.size
    columns = {
        "int": np.arange(-4, n - 4),
        "uint": np.arange(n, dtype=np.uint8),
        "bool": np.arange(n) % 3 == 0,
        "float": floats,
        "float32": floats.astype(np.float32),
        "str": np.array(["a", "b,c", 'say "hi"', "", "x y", "line\nbreak",
                         "nan", "1e5", "\u00e9"]),
        "mixed": [1, 2.5, True, np.float64(np.nan), np.int32(-3), "s", None,
                  np.bool_(False), np.float32(0.1)],
        'quoted "name", too': floats[::-1],
    }
    rows = [{k: v[i] for k, v in columns.items()} for i in range(n)]
    write_csv(tmp_path / "new.csv", columns)
    _per_row_write_csv(tmp_path / "old.csv", rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\r\n") == n + 1  # the quoted line break stays "\n"

    empty = {"x": np.array([]), "y": []}
    write_csv(tmp_path / "empty.csv", empty)
    assert (tmp_path / "empty.csv").read_bytes() == b""


def _csv_writer_write_csv(path, columns):
    """The csv.writer-based write_csv the one-string writer replaced, kept as
    its oracle."""
    cells = [[_fmt(v) for v in values] for values in columns.values()]
    with open(path, "w", newline="") as fh:
        if cells and cells[0]:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(zip(*cells, strict=True))


@pytest.mark.parametrize("columns", [
    {"f": np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1, 123456789.0]),
     "i": np.arange(-3, 4), "b": np.arange(7) % 2 == 0,
     "s": np.array(["a,b", 'q"q', "l\nb", "cr\rx", "", "plain", " pad "])},
    {"only": np.array([0.5, -0.0, np.nan])},
    {"only": ["", "x", ""]},
    {"": np.arange(2)},
    {"a,b": np.arange(2), 'q"': np.array([True, False])},
    {"f": np.array([]), "i": np.array([], dtype=np.int64)},
    {"f": np.array([])},
    {},
], ids=["mixed", "one-float", "one-empty-str", "empty-name", "quoted-names",
        "zero-rows", "one-column-zero-rows", "no-columns"])
def test_write_csv_bytes_match_csv_writer(tmp_path, columns):
    write_csv(tmp_path / "new.csv", columns)
    _csv_writer_write_csv(tmp_path / "old.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _estimate_on(path, out_dir):
    return ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "a",
            "--group", "grp", "--covariates", "x1", "--propensity", "0.5",
            "--learner-y", "ols", "--out-dir", str(out_dir)]


def test_csv_field_over_limit_is_read(toy_csv, tmp_path):
    # A 200 000-character group name, past the csv module's default field
    # limit of 131 072, which applies to the header read and to the
    # csv-module walker, not to numpy's reader.
    big = "x" * 200_000
    path = tmp_path / "huge.csv"
    path.write_text(toy_csv.read_text().replace("all", big))
    assert main(_estimate_on(path, tmp_path / "out")) == 0
    assert main(_estimate_on(toy_csv, tmp_path / "toy")) == 0
    report, toy = (json.loads((tmp_path / d / "report.json").read_text())
                   for d in ("out", "toy"))
    assert report["group_relabeling"] == {big: 1}
    assert report["effects"] == toy["effects"]


@pytest.mark.parametrize("copies", [1, 2000])
def test_csv_not_utf8_exit_2(toy_csv, tmp_path, capsys, copies):
    # the long file puts the bad byte past the first block of decoded text
    header, *rows = toy_csv.read_bytes().splitlines(keepends=True)
    body = b"".join(rows * copies)
    at = len(body) - 8
    path = tmp_path / "latin1.csv"
    path.write_bytes(header + body[:at] + b"\xe9" + body[at:])
    assert main(_estimate_on(path, tmp_path / "out")) == 2
    line = (header + body[:at]).count(b"\n") + 1
    err = capsys.readouterr().err.lower()  # the codec name's case varies
    assert f"error: {path}: line {line}: not valid utf-8 text".lower() in err


@pytest.mark.parametrize("text,message", [
    ("1,inf\n", "non-finite value at row 1, column 2"),
    ("nan,0\n", "non-finite value at row 1, column 1"),
    ("1,0\n\n1,x\n", "cannot parse 'x' at row 2, column 2"),
    ("\n\n1,0\n1,x\n", "cannot parse 'x' at row 2, column 2 (line 4)"),
    ("1,1_000\n", "cannot parse '1_000' at row 1, column 2 (line 1)"),
    ("1,0\n1\n", "contrast file must have 1 K columns plus a trailing m0 column"),
])
def test_contrast_file_bad_cell_exit_2(toy_csv, tmp_path, capsys, text, message):
    contrast = tmp_path / "contrast.csv"
    contrast.write_text(text)
    out = tmp_path / "out"
    assert main(estimate_args(toy_csv, out, ["--contrast", str(contrast)])) == 2
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()
