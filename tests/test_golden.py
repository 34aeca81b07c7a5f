"""Fixed-seed `discover`, `estimate`, `diagnose` and `simulate` outputs match
the files under tests/golden/.

Each run of tests/golden/regen.py's RUNS is repeated, the first three
commands on the same drawn CSV and the four `simulate` studies (calibration,
power, robustness, diagnostic) on their own draws, and each file that the
run names is compared with the committed one:

- keys, integers, strings and booleans exactly;
- JSON floats to 1e-12 relative;
- CSV float cells to one unit in their last printed digit.

The float tolerances are there so that the last bits of another platform's
libm and BLAS (the macOS CI job) do not fail the test; on the platform that
wrote the goldens the files are byte-identical. Rewrite them with regen.py
and name every changed file and field in CHANGES.md.

The README's `report.json` field table must list exactly the key paths that
the golden reports use, in their order.
"""

import csv
import importlib.util
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
README = GOLDEN.parents[1] / "README.md"
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


def _matches_its_golden_files(workdir, name):
    out = regen.run(name, workdir)
    want = GOLDEN / name
    for file in regen.RUNS[name][1]:
        if file.endswith(".json"):
            _same_json(json.loads((out / file).read_text()),
                       json.loads((want / file).read_text()), file)
        else:
            _same_csv(out / file, want / file)


@pytest.mark.parametrize("name", [n for n in regen.RUNS if n.startswith("discover")])
def test_discover_matches_its_golden_files(workdir, name):
    _matches_its_golden_files(workdir, name)


@pytest.mark.parametrize("name", [n for n in regen.RUNS
                                  if n.startswith(("estimate", "diagnose"))])
def test_estimate_and_diagnose_match_their_golden_files(workdir, name):
    _matches_its_golden_files(workdir, name)


@pytest.mark.parametrize("name", [n for n in regen.RUNS if n.startswith("simulate")])
def test_simulate_matches_its_golden_files(workdir, name):
    _matches_its_golden_files(workdir, name)


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


# Keys whose children are data, not field names: a group value or an arm.
_DATA_KEYS = {"group_relabeling": "<value>", "diagnostics.flagged_regions": "<arm>",
              "diagnostics.nan_grid_points": "<arm>"}


def _key_paths(value, path=""):
    """The key path of each leaf of value, in order: `a.b` for a nested key,
    `[]` for every row of a list of objects, a placeholder for a data key."""
    if isinstance(value, dict):
        for key, child in value.items():
            name = _DATA_KEYS.get(path, key)
            yield from _key_paths(child, f"{path}.{name}" if path else name)
    elif value and isinstance(value, list) and all(isinstance(v, dict) for v in value):
        for row in value:
            yield from _key_paths(row, path + "[]")
    else:
        yield path


def test_the_readme_lists_each_report_field_that_a_golden_uses():
    section = README.read_text().split("## `report.json` fields\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert len(listed) == len(set(listed))
    used = set()
    for report in sorted(GOLDEN.glob("*/report.json")):
        paths = list(dict.fromkeys(_key_paths(json.loads(report.read_text()))))
        assert not set(paths) - set(listed), (report.parent.name, set(paths) - set(listed))
        positions = [listed.index(path) for path in paths]
        assert positions == sorted(positions), (report.parent.name, "keys out of README order")
        used.update(paths)
    assert not set(listed) - used, set(listed) - used
