"""Core data model: validation, fold plans, CSV ingestion."""

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest

from ssls import data
from ssls.data import (
    _read_columns,
    CrossFitPlan,
    Dataset,
    Grouping,
    load_csv,
    make_crossfit_plan,
    relabel_dense,
    validate_dataset,
)
from ssls.errors import (
    DomainError,
    EmptyGroup,
    FoldsNotPartition,
    LengthMismatch,
    NonBinaryTreatment,
    NonFinite,
    OneArmOnly,
    PropensityOutOfRange,
    SslsError,
    TooFewSamples,
)
from ssls.learners import KnownPropensity
from ssls.rng import Stream


def small_dataset():
    return Dataset(
        y=[1.0, 2.0, 3.0, 4.0],
        a=[0, 1, 0, 1],
        x=[[0.1], [0.2], [0.3], [0.4]],
    )


def test_validate_ok():
    validate_dataset(small_dataset(), Grouping([1, 1, 2, 2], 2))


def test_validate_non_binary_treatment():
    d = Dataset(y=[1, 2, 3, 4], a=[0, 1, 2, 0], x=np.zeros((4, 1)))
    with pytest.raises(NonBinaryTreatment):
        validate_dataset(d, Grouping([1, 1, 2, 2], 2))


def test_validate_empty_group():
    with pytest.raises(EmptyGroup) as err:
        validate_dataset(small_dataset(), Grouping([1, 1, 1, 1], 2))
    assert err.value.group == 2


def test_gate_one_arm():
    # every grouping, discovered or given, needs both arms in each group
    for a, where in (([0, 1, 1, 1], "group 2"), ([0, 0, 0, 1], "group 1")):
        d = Dataset(y=[1.0, 2.0, 3.0, 4.0], a=a, x=[[0.1], [0.2], [0.3], [0.4]])
        with pytest.raises(OneArmOnly) as err:
            validate_dataset(d, Grouping([1, 1, 2, 2], 2))
        assert err.value.where == where


def test_validate_length_mismatch():
    d = Dataset(y=[1, 2, 3, 4], a=[0, 1, 0, 1], x=np.zeros((4, 1)))
    with pytest.raises(LengthMismatch):
        validate_dataset(d, Grouping([1, 1, 2], 2))


def test_validate_non_finite():
    x = np.zeros((4, 2))
    x[2, 1] = np.nan
    d = Dataset(y=[1, 2, 3, 4], a=[0, 1, 0, 1], x=x)
    with pytest.raises(NonFinite) as err:
        validate_dataset(d, Grouping([1, 1, 2, 2], 2))
    assert (err.value.row, err.value.col) == (2, 1)


def test_validate_non_finite_outcome():
    for bad in (np.nan, np.inf):
        d = Dataset(y=[1.0, bad, 3.0, 4.0], a=[0, 1, 0, 1], x=np.zeros((4, 1)))
        with pytest.raises(NonFinite, match="outcome") as err:
            validate_dataset(d, Grouping([1, 1, 2, 2], 2))
        assert (err.value.row, err.value.col) == (1, None)


def test_validate_propensity_range():
    with pytest.raises(PropensityOutOfRange) as err:
        KnownPropensity([0.5, 1.0, 0.5, 0.5])
    assert err.value.row == 1


def test_plan_even_split():
    fold_of = make_crossfit_plan(10, CrossFitPlan(n_folds=2, seed=1))
    assert fold_of.dtype == np.int64 and fold_of.shape == (10,)
    assert sorted(np.bincount(fold_of)) == [5, 5]


def test_plan_odd_split():
    fold_of = make_crossfit_plan(9, CrossFitPlan(n_folds=2, seed=1))
    assert sorted(np.bincount(fold_of)) == [4, 5]


def test_plan_partition_is_bijection():
    for n, k in [(10, 2), (9, 3), (101, 5)]:
        fold_of = make_crossfit_plan(n, CrossFitPlan(n_folds=k, seed=3))
        assert fold_of.shape == (n,)
        assert set(fold_of.tolist()) == set(range(k))


def test_plan_deterministic():
    a = make_crossfit_plan(57, CrossFitPlan(n_folds=3, seed=11))
    b = make_crossfit_plan(57, CrossFitPlan(n_folds=3, seed=11))
    assert np.array_equal(a, b)
    c = make_crossfit_plan(57, CrossFitPlan(n_folds=3, seed=12))
    assert not np.array_equal(a, c)


def test_plan_stratified_even_groups():
    g = Grouping([1, 1, 1, 1, 2, 2, 2, 2], 2)
    fold_of = make_crossfit_plan(8, CrossFitPlan(n_folds=2, stratified=True, seed=5), g)
    for k in range(2):
        labels = g.labels[fold_of == k]
        assert (labels == 1).sum() == 2
        assert (labels == 2).sum() == 2


def test_plan_stratified_within_one_of_each_group():
    rng = np.random.default_rng(0)
    labels = rng.integers(1, 5, size=103)
    labels[:4] = [1, 2, 3, 4]
    g = Grouping(labels, 4)
    for k in (2, 3):
        fold_of = make_crossfit_plan(103, CrossFitPlan(n_folds=k, stratified=True, seed=2), g)
        for grp in range(1, 5):
            counts = np.bincount(fold_of[g.labels == grp], minlength=k)
            assert max(counts) - min(counts) <= 1


def test_plan_too_few():
    with pytest.raises(TooFewSamples):
        make_crossfit_plan(1, CrossFitPlan(n_folds=2))


def test_plan_stratified_requires_grouping():
    with pytest.raises(ValueError):
        make_crossfit_plan(10, CrossFitPlan(n_folds=2, stratified=True))


@pytest.mark.parametrize("length", [11, 9])
def test_plan_stratified_grouping_of_wrong_length(length):
    g = Grouping(np.arange(length) % 2 + 1, 2)
    with pytest.raises(LengthMismatch, match=f"the grouping has {length} labels for 10 "
                                             "observations"):
        make_crossfit_plan(10, CrossFitPlan(stratified=True), g)


def test_plan_stratified_label_outside_groups():
    g = Grouping([1, 2, 1, 2, 3, 1, 2, 1], 2)
    with pytest.raises(DomainError, match="row 4 has a group label outside 1..2"):
        make_crossfit_plan(8, CrossFitPlan(stratified=True), g)


@pytest.mark.parametrize("field, value, message", [
    ("n_folds", 1, "n_folds must be >= 2, got 1"),
    ("n_folds", 0, "n_folds must be >= 2, got 0"),
    ("repeats", 0, "repeats must be >= 1"),
])
def test_plan_settings_checked_on_construction(field, value, message):
    with pytest.raises(DomainError, match=message):
        CrossFitPlan(**{field: value})


# The fold plan as it was when a split was a tuple of sorted index arrays,
# kept as the oracle of the label vector that replaced it.
@dataclass(frozen=True)
class _TuplePlan:
    n_folds: int = 2
    stratified: bool = False
    repeats: int = 1
    seed: int = 0
    folds: tuple = ()

    def fold_of(self, n: int) -> np.ndarray:
        """The fold of each of n rows; FoldsNotPartition unless the folds
        partition rows 0..n-1."""
        held = sum(len(f) for f in self.folds)
        if held != n:
            raise FoldsNotPartition(f"the folds hold {held} rows for {n} observations")
        out = np.full(n, -1, dtype=np.int64)
        try:
            for k, idx in enumerate(self.folds):
                out[idx] = k
        except IndexError:
            raise FoldsNotPartition(f"fold {k} holds a row outside 0..{n - 1}") from None
        if n and out.min() < 0:  # n rows in the folds, so one is in two of them
            raise FoldsNotPartition(f"row {int(out.argmin())} is in no fold")
        return out


def _chunk_sizes(m: int, k: int) -> list[int]:
    base, rem = divmod(m, k)
    return [base + 1 if i < rem else base for i in range(k)]


def _tuple_crossfit_plan(
    n: int,
    plan: _TuplePlan | None = None,
    grouping: Optional[Grouping] = None,
    seed: Optional[int] = None,
) -> _TuplePlan:
    """Materialize fold assignments for n observations.

    Unstratified folds are a random partition with sizes differing by at
    most one. Stratified folds split every group's members that evenly,
    rotating which fold receives each group's remainder so totals stay
    balanced. Deterministic given the seed.
    """
    if plan is None:
        plan = _TuplePlan()
    if seed is None:
        seed = plan.seed
    k = plan.n_folds
    if k < 2:
        raise DomainError(f"n_folds must be >= 2, got {k}")
    if n < k:
        raise TooFewSamples(f"cannot split {n} observations into {k} folds")
    if plan.stratified and grouping is None:
        raise DomainError("stratified splitting requires a grouping")
    stream = Stream(seed).child("folds")

    folds: list[list[int]] = [[] for _ in range(k)]
    if not plan.stratified:
        perm = stream.permutation(n)
        start = 0
        for j, size in enumerate(_chunk_sizes(n, k)):
            folds[j].extend(perm[start:start + size].tolist())
            start += size
    else:
        assert grouping is not None
        for g in range(1, grouping.n_groups + 1):
            members = np.flatnonzero(grouping.labels == g)
            perm = members[stream.child(g).permutation(len(members))]
            offset = (g - 1) % k
            start = 0
            for j, size in enumerate(_chunk_sizes(len(members), k)):
                folds[(j + offset) % k].extend(perm[start:start + size].tolist())
                start += size
    if any(len(f) == 0 for f in folds):
        raise TooFewSamples(f"a fold came out empty splitting {n} observations")
    materialized = tuple(np.sort(np.asarray(f, dtype=np.int64)) for f in folds)
    return replace(plan, seed=seed, folds=materialized)


def test_plan_labels_match_the_tuple_oracle():
    too_few = 0
    for n in (1, 2, 3, 4, 5, 7, 10, 57, 1000, 100_000):
        for n_groups in (1, 3, 4):
            labels = 1 + np.random.default_rng(n + n_groups).integers(0, n_groups, n)
            g = Grouping(labels, n_groups)
            for k in (2, 3, 5):
                for stratified in (False, True):
                    for seed in (0, 411):
                        try:
                            oracle = _tuple_crossfit_plan(
                                n, _TuplePlan(k, stratified), g, seed).fold_of(n)
                        except TooFewSamples:
                            too_few += 1
                            with pytest.raises(TooFewSamples):
                                make_crossfit_plan(n, CrossFitPlan(k, stratified), g, seed)
                            continue
                        fold_of = make_crossfit_plan(n, CrossFitPlan(k, stratified), g, seed)
                        assert fold_of.dtype == np.int64
                        assert np.array_equal(fold_of, oracle)
    assert too_few > 0


def test_relabel_dense():
    labels, mapping = relabel_dense(["b", "a", "b", "c"])
    assert mapping == {"a": 1, "b": 2, "c": 3}
    assert labels.tolist() == [2, 1, 2, 3]
    labels, mapping = relabel_dense(["10", "2", "10"])
    assert mapping == {"2": 1, "10": 2}


def test_relabel_dense_sorts_a_nan_value_as_text():
    # float("nan") compares false with every number, so as a numeric key it
    # would leave the order to the order of the rows
    for values in itertools.permutations(["2", "nan", "1", "NaN"]):
        labels, mapping = relabel_dense(list(values))
        assert list(mapping.items()) == [("1", 1), ("2", 2), ("NaN", 3), ("nan", 4)]


def test_grouping_helpers():
    g = Grouping([1, 2, 2, 3], 3)
    assert g.counts().tolist() == [1, 2, 1]


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "y,a,grp,x1,x2,ps\n"
        "1.5,1,old,0.1,2.0,0.9\n"
        "2.0,0,young,0.2,1.0,0.85\n"
        "0.5,1,old,0.3,0.0,0.9\n"
    )
    d, g, mapping, ps = load_csv(str(path), outcome="y", treatment="a",
                                 covariates=["x1", "x2"], group="grp", propensity="ps")
    assert d.n == 3
    assert d.x.shape == (3, 2)
    assert mapping == {"old": 1, "young": 2}
    assert g.labels.tolist() == [1, 2, 1]
    assert ps.tolist() == [0.9, 0.85, 0.9]


def test_load_csv_missing_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,x1\n1.0,1,\n2.0,0,0.5\n")
    with pytest.raises(SslsError) as err:
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"])
    assert "x1" in str(err.value) and "row 2" in str(err.value)


def test_load_csv_bad_cell_names_the_file_line(tmp_path):
    # blank lines are not rows, but the file line counts them
    path = tmp_path / "bad.csv"
    path.write_text("y,a,x1\n\n\n1.0,1,abc\n")
    with pytest.raises(SslsError) as err:
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"])
    assert str(err.value) == f"{path}: cannot parse 'abc' at row 2, column 'x1' (line 4)"


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1\n1.0,0.5\n")
    with pytest.raises(SslsError) as err:
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"])
    assert "'a'" in str(err.value)
    # columns are looked up in the order outcome, treatment, covariates,
    # group, propensity
    path.write_text("y,a,x1\n1.0,1,0.5\n")
    with pytest.raises(SslsError, match="column 'g' not found"):
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"],
                 group="g", propensity="ps")


def test_load_csv_non_binary(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,x1\n1.0,2,0.5\n")
    with pytest.raises(NonBinaryTreatment):
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1"])


def test_dataset_subset_and_se():
    d = small_dataset()
    sub = d.subset(np.array([0, 2]))
    assert sub.y.tolist() == [1.0, 3.0]
    assert sub.a.tolist() == [0.0, 0.0]


def _per_cell_load_csv(path, outcome, treatment, covariates, group=None,
                       propensity=None):
    """The cell-by-cell loader load_csv replaced, kept as its oracle, with
    load_csv's number rule: float() of ASCII text with no '_'."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SslsError(f"{path}: empty file, header row required") from None
        rows, lines = [], []  # lines: the file line each row starts on
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1

    header = [h.strip() for h in header]
    col_index = {name: i for i, name in enumerate(header)}
    needed = [outcome, treatment, *covariates]
    if group is not None:
        needed.append(group)
    if propensity is not None:
        needed.append(propensity)
    for name in needed:
        if name not in col_index:
            raise SslsError(f"{path}: column '{name}' not found in header {header}")

    def cell(row_i, name):
        row = rows[row_i]
        j = col_index[name]
        if j >= len(row) or row[j].strip() == "":
            raise SslsError(f"{path}: missing value at row {row_i + 2}, "
                            f"column '{name}' (line {lines[row_i]})")
        return row[j].strip()

    def numeric(row_i, name):
        raw = cell(row_i, name)
        try:
            if not raw.isascii() or "_" in raw:  # what numpy's reader refuses
                raise ValueError(raw)
            v = float(raw)
        except ValueError:
            raise SslsError(f"{path}: cannot parse '{raw}' at row {row_i + 2}, "
                            f"column '{name}' (line {lines[row_i]})") from None
        if not math.isfinite(v):
            raise SslsError(f"{path}: non-finite value at row {row_i + 2}, "
                            f"column '{name}' (line {lines[row_i]})")
        return v

    n = len(rows)
    if n == 0:
        raise SslsError(f"{path}: no data rows")
    y = np.array([numeric(i, outcome) for i in range(n)])
    a_raw = np.array([numeric(i, treatment) for i in range(n)])
    if not np.all((a_raw == 0.0) | (a_raw == 1.0)):
        bad = int(np.argmax(~((a_raw == 0.0) | (a_raw == 1.0))))
        raise NonBinaryTreatment(
            f"{path}: treatment column '{treatment}' must be 0/1, "
            f"found {a_raw[bad]} at row {bad + 2}"
        )
    x = np.column_stack([[numeric(i, c) for i in range(n)] for c in covariates])
    prop = None
    if propensity is not None:
        prop = np.array([numeric(i, propensity) for i in range(n)])
    dataset = Dataset(y, a_raw, x)
    grouping = None
    mapping = {}
    if group is not None:
        labels, mapping = relabel_dense([cell(i, group) for i in range(n)])
        grouping = Grouping(labels, int(labels.max()))
    return dataset, grouping, mapping, prop


_HEADER = ["y", "a", "x1", "x2", "ps", "grp"]
_GOOD = [
    ['"1.5"', "1", " 0.25 ", "1000", "0.5", '"a,b"'],
    ["-2e-3", " 0 ", "\t7", "-0", "0.25", "10"],
    ["", "", "", "", "", ""],
    ["3", "1.0", "1e300", "4.9e-324", " .75", " 2 "],
    ["+4.", "0", "-1E5", "0.1", "0.5", "b"],
]


def _load_both(path):
    # numpy's reader warns when no row follows the header, and its str mode
    # on blank lines; no warning may escape load_csv
    kwargs = dict(outcome="y", treatment="a", covariates=["x1", "x2"],
                  group="grp", propensity="ps")
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loader in (load_csv, _per_cell_load_csv):
            try:
                results.append(loader(str(path), **kwargs))
            except SslsError as err:
                results.append((type(err), str(err)))
    return results


def _bulk_read(path):
    """Whether numpy's reader reads the file with no bad cell for the
    csv-module walker to name."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _read_columns(str(path), [0, 1, 2, 3, 4], 5)
        except ValueError:
            return False
        return True


def _assert_same(new, old):
    if isinstance(old[0], type):
        assert new == old
        return
    (d, g, mapping, ps), (d0, g0, mapping0, ps0) = new, old
    for got, want in [(d.y, d0.y), (d.a, d0.a), (d.x, d0.x), (ps, ps0),
                      (g.labels, g0.labels)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert mapping == mapping0 and list(mapping) == list(mapping0)
    assert g.n_groups == g0.n_groups


def _write(path, rows, end="\n"):
    # blank lines in the table are skipped by both readers
    path.write_text(end.join(",".join(r) if any(r) else "" for r in
                             [_HEADER, *rows]) + end, newline="")


def test_load_csv_matches_per_cell_loader_on_valid_input(tmp_path):
    path = tmp_path / "good.csv"
    _write(path, _GOOD)
    new, old = _load_both(path)
    assert not isinstance(old[0], type), old
    _assert_same(new, old)
    assert old[2] == {"2": 1, "10": 2, "a,b": 3, "b": 4}


@pytest.mark.parametrize("bad", ["<short>", "", "  ", "abc", "inf", "nan", "2",
                                 "0x10", "1__0", "1_000", "\uff11"])
def test_load_csv_matches_per_cell_loader_on_bad_cells(tmp_path, bad):
    # The bad cell goes into every bound column and onto two rows; a later
    # bad cell in another column must not change which error is reported.
    path = tmp_path / "bad.csv"
    for col in range(len(_HEADER)):
        for row in (0, 3):
            rows = [list(r) for r in _GOOD]
            if bad == "<short>":
                rows[row] = rows[row][:col]
            else:
                rows[row][col] = bad
                rows[4][(col + 1) % len(_HEADER)] = "zzz"
            _write(path, rows)
            new, old = _load_both(path)
            _assert_same(new, old)


# Every cell numpy's reader parses as float() does, and group values whose
# quoting and padding the two tokenizers must agree on.
_BULK = [
    ['"1.5"', "1", " 0.25 ", "1000", "0.5", '"a,b"'],
    ["-2e-3", " 0 ", "\t7", "-0", "0.25", 'ab"c'],
    ["", "", "", "", "", ""],
    ["3", "1.0", "1e300", "4.9e-324", " .75", '"a"b'],
    ["+4.", "0", "-1E5", "0.1", "0.5", '"he said ""hi"""'],
    ["5", "1", "2", "3", "0.5", "\u00a0nbsp\u00a0"],
    ["6", "0", "2", "3", "0.5", " 10 "],
]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_load_csv_bulk_read_matches_per_cell_loader(tmp_path, end):
    path = tmp_path / "good.csv"
    _write(path, _BULK, end)
    new, old = _load_both(path)
    assert not isinstance(old[0], type), old
    _assert_same(new, old)
    assert list(old[2]) == ["10", "a,b", "ab", 'ab"c', 'he said "hi"', "nbsp"]
    assert _bulk_read(path)


@pytest.mark.parametrize("text", [
    "y,a,x1,x2,ps,grp\n1,1,2,3,0.5,g\n   \n2,0,2,3,0.5,g\n",  # whitespace-only line
    "y,a,x1,x2,ps,grp\n\n\n\n",  # a header and blank lines only
    "y,a,x1,x2,ps,grp\r\n\r\n",
    "y,a,x1,x2,ps,grp\n1,1,2,3,0.5,g\x00\n2,0,2,3,0.5,g\n",  # NUL-ended group
    "y,a,x1,x2,ps,grp\n1,1,2,3,0.5,\"g\n h\"\n2,0,2,3,0.5,g\n",  # quoted line break
    "y,a,x1,x2,ps,grp\n1,2,2,3,0.5,g\n2,0,nan,3,0.5,g\n",  # non-binary before nan
])
def test_load_csv_edge_files_match_per_cell_loader(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_text(text, newline="")
    new, old = _load_both(path)
    _assert_same(new, old)


def test_load_csv_bulk_read_round_trips_doubles_bitwise(tmp_path):
    # 20 000 finite doubles, subnormals and signed zeros included, written
    # with repr and with %.17g; numpy's parse must equal float()'s bit for bit
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
    bits[::7] = rng.integers(0, 2**52, size=bits[::7].size, dtype=np.uint64)
    bits[rng.random(bits.size) < 0.5] |= np.uint64(1 << 63)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = -0.0
    cols = values.reshape(4, -1)
    text = ["y,a,x1,x2,ps,grp"]
    for i in range(cols.shape[1]):
        fmt = repr if i % 2 else (lambda v: "%.17g" % v)
        text.append(",".join([fmt(float(cols[0, i])), str(i % 2),
                              *(fmt(float(cols[k, i])) for k in (1, 2, 3)), "g"]))
    path = tmp_path / "doubles.csv"
    path.write_text("\n".join(text) + "\n")
    assert _bulk_read(path)
    new, old = _load_both(path)
    _assert_same(new, old)
    d, _, _, ps = new
    # the columns keep the csv path's contiguous layout, so later sums and
    # products round the same way
    assert all(v.flags.c_contiguous for v in (d.y, d.a, d.x, ps))
    got = np.column_stack([d.y, d.x, ps]).T
    assert np.array_equal(got.view(np.uint64), cols.view(np.uint64))


def test_relabel_dense_orders_ties_by_first_appearance():
    # "1", "1.0" and "01" share a sort key; a set would order them by string
    # hashes, which change from one interpreter to the next
    labels, mapping = relabel_dense(["b", "1.0", "a\x00", "1", "a", "01", "1"])
    assert list(mapping.items()) == [("1.0", 1), ("1", 2), ("01", 3), ("a", 4),
                                     ("a\x00", 5), ("b", 6)]
    assert labels.tolist() == [6, 1, 5, 2, 4, 3, 2]


@pytest.mark.parametrize("wide", ["note", "grp"])
@pytest.mark.parametrize("x2", ["1000", "1_000"])
def test_load_csv_accepts_an_oversized_cell_on_both_paths(tmp_path, wide, x2):
    # A 200 000-character cell, far past the csv module's default field limit
    # of 131 072, in an unbound column or in the group column. numpy's reader
    # parses 1000; 1_000 sends the file to the csv-module walker, which must
    # read past the long cell to name 1_000 and leave the process-global
    # limit as it found it.
    big = "a" * 200_000
    path = tmp_path / "wide.csv"
    rows = [_HEADER + ["note"], ["1.5", "1", "0.25", x2, "0.5", "g", big],
            ["2", "0", "7", "3", "0.25", "h", "short"]]
    rows[1][5 if wide == "grp" else 6] = big
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    limit = csv.field_size_limit()
    assert _bulk_read(path) == (x2 == "1000")
    if x2 == "1_000":
        with pytest.raises(SslsError) as err:
            load_csv(str(path), outcome="y", treatment="a", covariates=["x1", "x2"],
                     group="grp", propensity="ps")
        assert str(err.value) == (f"{path}: cannot parse '1_000' at row 2, "
                                  f"column 'x2' (line 2)")
        assert csv.field_size_limit() == limit
        return
    d, g, mapping, ps = load_csv(str(path), outcome="y", treatment="a",
                                 covariates=["x1", "x2"], group="grp", propensity="ps")
    assert csv.field_size_limit() == limit
    assert d.x.tolist() == [[0.25, 1000.0], [7.0, 3.0]]
    assert ps.tolist() == [0.5, 0.25]
    assert list(mapping) == ([big, "h"] if wide == "grp" else ["g", "h"])
    assert g.labels.tolist() == [1, 2]

    rows[2][2] = "abc"  # an error on the csv-module path restores the limit too
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    with pytest.raises(SslsError, match="cannot parse 'abc' at row 3, column 'x1'"):
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1", "x2"])
    assert csv.field_size_limit() == limit


def test_load_csv_reads_a_valid_file_in_one_numpy_call(tmp_path, monkeypatch):
    # The bound columns, the group column among them, come from one
    # np.loadtxt call, and a valid file never reaches the csv-module walker.
    path = tmp_path / "good.csv"
    _write(path, _GOOD)
    calls = {"loadtxt": 0, "walker": 0}
    loadtxt, walker = np.loadtxt, data._raise_first_bad_cell

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "loadtxt", counted("loadtxt", loadtxt))
    monkeypatch.setattr(data, "_raise_first_bad_cell", counted("walker", walker))
    d, g, mapping, ps = load_csv(str(path), outcome="y", treatment="a",
                                 covariates=["x1", "x2"], group="grp", propensity="ps")
    assert calls == {"loadtxt": 1, "walker": 0}
    assert d.n == 4 and g.n_groups == 4 and mapping["a,b"] == 3
    path.write_text(path.read_text().replace("1000", "1_000"))
    with pytest.raises(SslsError, match="cannot parse '1_000'"):
        load_csv(str(path), outcome="y", treatment="a", covariates=["x1", "x2"])
    assert calls == {"loadtxt": 2, "walker": 1}


@pytest.mark.parametrize("covariates,group,message", [
    (["x1"], None, "column 'x1' appears twice in the header, at columns 3 and 4"),
    (["x0"], "g", "column 'g' appears twice in the header, at columns 5 and 6"),
])
def test_load_csv_refuses_a_bound_column_named_twice(tmp_path, covariates, group,
                                                      message):
    # A repeated name that no flag binds is read as before, and one column
    # may fill several roles.
    path = tmp_path / "twice.csv"
    path.write_text("y,a,x1,x1,g,g,x0\n1,1,0.5,9,u,v,0\n2,0,0.25,8,u,v,1\n")
    with pytest.raises(SslsError) as err:
        load_csv(str(path), outcome="y", treatment="a", covariates=covariates,
                 group=group)
    assert str(err.value) == f"{path}: {message}"
    d, g, mapping, ps = load_csv(str(path), outcome="y", treatment="a",
                                 covariates=["x0", "a"], group="x0", propensity="x0")
    assert d.x.tolist() == [[0.0, 1.0], [1.0, 0.0]] and ps.tolist() == [0.0, 1.0]
    assert mapping == {"0": 1, "1": 2} and g.labels.tolist() == [1, 2]
