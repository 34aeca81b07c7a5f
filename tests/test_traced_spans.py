"""The benchmark's traced runs still see every span they require.

perfbench/tracing.py times each layer by replacing names inside the ssls
modules (``ssls.cli.load_csv``, ``ssls.estimator.fit_propensity``, ...), and
a traced operation fails when a required span never fires. These tests run
one small operation of each workload kind under the tracer, so that a
refactor which renames or bypasses one of those names fails here first.
"""

import contextlib
import importlib.util
import io
from functools import partial
from pathlib import Path

import pytest

import ssls.cli
from ssls.simulation import run_calibration_study

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
dgp = _load("dgp")


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "input.csv"
    dgp.write_csv(path, dgp.draw(600, 1))
    return path


def _cli_argv(kind, path, out):
    argv = [kind, "--data", str(path), "--outcome", "y", "--treatment", "a",
            "--covariates", ",".join(dgp.COVARIATES), "--learner-y", "ols",
            "--learner-e", "logistic", "--seed", "0", "--out-dir", str(out)]
    return argv + (["--group", "g"] if kind == "estimate" else ["--groups", "4"])


@pytest.mark.parametrize("kind", ["estimate", "discover"])
def test_traced_cli_operation_fires_every_required_span(bench_csv, tmp_path, kind):
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stderr(io.StringIO()):
        rc = tracer.run_op(1, "cli.main", ssls.cli.main,
                           _cli_argv(kind, bench_csv, tmp_path / "out"))
    assert rc == 0
    metrics = tracer.op_metrics(1, tracing.REQUIRED[kind])
    assert metrics["learners.fit_propensity.calls"] == 2
    assert metrics["learners.logistic_nonconverged_ratio"] == 0.0


def test_traced_calibration_fires_every_required_span():
    tracer = tracing.Tracer()
    with tracer.installed():
        results = tracer.run_op(1, "simulation.run_calibration_study",
                                partial(run_calibration_study, workers=1),
                                [("gbm", 0.0, 0.0)], 2, 200)
    assert len(results) == 1
    metrics = tracer.op_metrics(1, tracing.REQUIRED["mc"])
    # two replicates of one split each: one fold draw and one cross-fit per
    # replicate, of two folds with a 100-tree outcome and propensity each
    assert metrics["data.make_crossfit_plan.calls"] == 2
    assert metrics["estimator.crossfit_nuisance.calls"] == 2
    assert metrics["learners.fit_propensity.calls"] == 4
    assert metrics["learners.gbm_trees"] == 800
