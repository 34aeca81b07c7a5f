"""Rewrite the golden outputs under tests/golden/ from the current tree.

    python tests/golden/regen.py

It imports ssls from this checkout's src/. Each run in RUNS writes its files
into tests/golden/<run name>/, and tests/test_golden.py compares a fresh run
with them. A change that runs this script must list, in CHANGES.md, every
file and every field it changed and say why; an unexplained difference in a
golden file is a regression.

The input CSV of discover, estimate and diagnose is drawn with
perfbench/dgp.py, loaded by path, so that a change to the library's own
data-generating process cannot move it; its last column, ps, is the design's
true propensity. The simulate runs draw from that process, so they pin it
along with the studies.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DGP_PATH = HERE.parent.parent / "perfbench" / "dgp.py"
CSV_NAME = "input.csv"
CONTRAST_NAME = "contrast.csv"
N_ROWS = 3_000
NOISE_SEED = 20
_DATA = ["--data", CSV_NAME, "--outcome", "y", "--treatment", "a",
         "--covariates", "x1,x2,x3,x4,x5", "--seed", "0"]
_DISCOVER = ["discover", *_DATA, "--groups", "4"]
_ESTIMATE = ["estimate", *_DATA, "--group", "g"]
_SIMULATE = ["simulate", "--seed", "0", "--study"]
_DISCOVERED = ("report.json", "groups.csv", "centroids.csv")
_ESTIMATED = ("report.json", "groups.csv", "residuals_raw.csv", "residuals_smooth.csv")
# Each run's arguments and the files of its output folder that are compared.
RUNS = {
    "discover-ols": ([*_DISCOVER, "--learner-y", "ols"], _DISCOVERED),
    "discover-ols-repeats3": ([*_DISCOVER, "--learner-y", "ols", "--repeats", "3"],
                              _DISCOVERED),
    "discover-gbm": ([*_DISCOVER, "--learner-y", "gbm"], _DISCOVERED),
    "estimate-ols": ([*_ESTIMATE, "--learner-y", "ols"], _ESTIMATED),
    "estimate-gbm-repeats3": ([*_ESTIMATE, "--learner-y", "gbm", "--repeats", "3"],
                              _ESTIMATED),
    "estimate-cart": ([*_ESTIMATE, "--learner-y", "cart", "--learner-e", "cart"],
                      _ESTIMATED),
    "estimate-propensity-column": ([*_ESTIMATE, "--learner-y", "ols",
                                    "--propensity", "ps"], _ESTIMATED),
    "estimate-contrast": ([*_ESTIMATE, "--learner-y", "ols",
                           "--contrast", CONTRAST_NAME], _ESTIMATED),
    "diagnose-ols": (["diagnose", *_DATA, "--group", "g", "--learner-y", "ols"],
                     _ESTIMATED),
    "simulate-calibration": ([*_SIMULATE, "calibration", "--learners",
                              "oracle,gbm,cart,ols-logistic", "--sigma-a", "0,1",
                              "--reps", "3", "--n", "300"], ("calibration.csv",)),
    "simulate-power": ([*_SIMULATE, "power", "--reps", "4", "--n", "300",
                        "--distances", "0,1.5"], ("power.csv",)),
    "simulate-robustness": ([*_SIMULATE, "robustness", "--reps", "2"],
                            ("robustness.csv",)),
    "simulate-diagnostic": ([*_SIMULATE, "diagnostic", "--n", "1000"],
                            tuple(f"residuals_{kind}_{tag}.csv"
                                  for kind in ("raw", "smooth")
                                  for tag in ("correct", "misspecified"))),
}


def write_input(directory: Path) -> None:
    """The fixed input CSV, as CSV_NAME in directory, and a two-row contrast
    (tau_1 = tau_2, tau_3 = tau_4) as CONTRAST_NAME."""
    spec = importlib.util.spec_from_file_location("golden_dgp", DGP_PATH)
    dgp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dgp)
    columns = dgp.draw(N_ROWS, NOISE_SEED)
    x1, x2, x3, x4, x5 = (columns[name] for name in dgp.COVARIATES)
    index = 0.5 + 0.5 * x1 + 0.5 * x2 - 0.5 * x3 - x4 + x5
    columns["ps"] = 1.0 / (1.0 + np.exp(-index))
    dgp.write_csv(directory / CSV_NAME, columns)
    (directory / CONTRAST_NAME).write_text("1,-1,0,0,0\n0,0,1,-1,0\n")


def run(name: str, directory: Path) -> Path:
    """Run RUNS[name] in directory, which holds the input CSV, so that the
    report names the input by its relative path; returns the output folder."""
    from ssls.cli import main

    out = directory / name
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            status = main([*RUNS[name][0], "--out-dir", name])
    finally:
        os.chdir(cwd)
    if status != 0:
        raise RuntimeError(f"{name} exited with {status}")
    return out


def main() -> None:
    workdir = HERE / "_regen"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        write_input(workdir)
        for name in RUNS:
            out = run(name, workdir)
            (HERE / name).mkdir(exist_ok=True)
            for file in RUNS[name][1]:
                shutil.copyfile(out / file, HERE / name / file)
            print(f"wrote {HERE / name}")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    main()
