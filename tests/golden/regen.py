"""Rewrite the golden outputs under tests/golden/ from the current tree.

    python tests/golden/regen.py

It imports ssls from this checkout's src/. Each run in RUNS writes its files
into tests/golden/<run name>/, and tests/test_golden.py compares a fresh run
with them. A change that runs this script must list, in CHANGES.md, every
file and every field it changed and say why; an unexplained difference in a
golden file is a regression.

The input CSV is drawn with perfbench/dgp.py, loaded by path, so that a
change to the library's own data-generating process cannot move it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DGP_PATH = HERE.parent.parent / "perfbench" / "dgp.py"
CSV_NAME = "input.csv"
N_ROWS = 3_000
NOISE_SEED = 20
FILES = ("report.json", "groups.csv", "centroids.csv")
_DISCOVER = ["discover", "--data", CSV_NAME, "--outcome", "y", "--treatment", "a",
             "--covariates", "x1,x2,x3,x4,x5", "--groups", "4", "--seed", "0"]
RUNS = {
    "discover-ols": [*_DISCOVER, "--learner-y", "ols"],
    "discover-ols-repeats3": [*_DISCOVER, "--learner-y", "ols", "--repeats", "3"],
    "discover-gbm": [*_DISCOVER, "--learner-y", "gbm"],
}


def write_input(directory: Path) -> None:
    """The fixed input CSV, as CSV_NAME in directory."""
    spec = importlib.util.spec_from_file_location("golden_dgp", DGP_PATH)
    dgp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dgp)
    dgp.write_csv(directory / CSV_NAME, dgp.draw(N_ROWS, NOISE_SEED))


def run(name: str, directory: Path) -> Path:
    """Run RUNS[name] in directory, which holds the input CSV, so that the
    report names the input by its relative path; returns the output folder."""
    from ssls.cli import main

    out = directory / name
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            status = main([*RUNS[name], "--out-dir", name])
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
            for file in FILES:
                shutil.copyfile(out / file, HERE / name / file)
            print(f"wrote {HERE / name}")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    main()
