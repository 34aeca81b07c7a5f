"""Fixed-seed `discover` outputs match the files under tests/golden/.

Each run of tests/golden/regen.py's RUNS is repeated on the same drawn CSV,
and its report.json, groups.csv and centroids.csv are compared with the
committed ones:

- keys, integers, strings and booleans exactly;
- report.json floats to 1e-12 relative;
- CSV float cells to one unit in their last printed digit.

The float tolerances are there so that the last bits of another platform's
libm and BLAS (the macOS CI job) do not fail the test; on the platform that
wrote the goldens the files are byte-identical. Rewrite them with regen.py
and name every changed file and field in CHANGES.md.
"""

import csv
import importlib.util
import json
import math
from decimal import Decimal
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    regen.write_input(directory)
    return directory


def _same_json(got, want, where="report.json"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


def _is_float_cell(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return any(c in cell for c in ".eE") or cell.lower() in ("nan", "inf", "-inf")


def _same_csv(got_path, want_path):
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    assert len(got) == len(want) and got[0] == want[0], want_path.name
    for r, (g_row, w_row) in enumerate(zip(got, want)):
        assert len(g_row) == len(w_row), (want_path.name, r)
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            assert _is_float_cell(w) and _is_float_cell(g), (want_path.name, r, g, w)
            unit = 10.0 ** Decimal(w).as_tuple().exponent
            assert abs(float(g) - float(w)) <= unit * (1 + 1e-9), (want_path.name, r, g, w)


@pytest.mark.parametrize("name", list(regen.RUNS))
def test_discover_matches_its_golden_files(workdir, name):
    out = regen.run(name, workdir)
    want = GOLDEN / name
    _same_json(json.loads((out / "report.json").read_text()),
               json.loads((want / "report.json").read_text()))
    for file in regen.FILES[1:]:
        _same_csv(out / file, want / file)


def test_the_comparison_sees_a_change(workdir, tmp_path):
    # The tolerances admit a last-digit difference and nothing larger.
    want = GOLDEN / "discover-ols" / "centroids.csv"
    rows = want.read_text().splitlines()
    cells = rows[1].split(",")
    unit = 10.0 ** Decimal(cells[1]).as_tuple().exponent
    for shift, passes in ((unit, True), (3 * unit, False)):
        moved = tmp_path / f"shift{shift}.csv"
        moved.write_text("\n".join(
            [rows[0], ",".join([cells[0], repr(float(cells[1]) + shift), *cells[2:]]),
             *rows[2:]]))
        if passes:
            _same_csv(moved, want)
        else:
            with pytest.raises(AssertionError):
                _same_csv(moved, want)
    report = json.loads((GOLDEN / "discover-ols" / "report.json").read_text())
    changed = json.loads(json.dumps(report))
    changed["clustering"]["inertia"] *= 1 + 1e-10
    with pytest.raises(AssertionError):
        _same_json(changed, report)
    changed = json.loads(json.dumps(report))
    changed["clustering"]["restarts_at_max_iter"] += 1
    with pytest.raises(AssertionError):
        _same_json(changed, report)
