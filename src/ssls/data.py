"""Core data model: datasets, groupings, cross-fit plans, effect estimates."""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyGroup,
    LengthMismatch,
    NonBinaryTreatment,
    NonFinite,
    OneArmOnly,
    SslsError,
    TooFewSamples,
)
from .rng import Stream


def _as_float_vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise DomainError(f"expected a 1-d vector, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class Dataset:
    """Observed sample: outcome y, binary treatment a, covariate matrix x."""

    y: np.ndarray
    a: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float_vector(self.y))
        object.__setattr__(self, "a", _as_float_vector(self.a))
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.y[idx], self.a[idx], self.x[idx])


@dataclass(frozen=True)
class Grouping:
    """Per-observation group labels in 1..n_groups."""

    labels: np.ndarray
    n_groups: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise DomainError("labels must be a 1-d integer vector")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_groups + 1)[1:]


@dataclass(frozen=True)
class GroupEffects:
    """Estimated groupwise effects with plug-in asymptotic variances.

    ``sigma_gg_hat`` is the variance of sqrt(n_effective) * (tau_hat - tau),
    i.e. pre-division by the sample size; standard errors are
    sqrt(sigma_gg_hat / n_effective).
    """

    tau_hat: np.ndarray
    sigma_gg_hat: np.ndarray
    n_g: np.ndarray
    n_effective: int
    residuals: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.tau_hat.shape[0]

    def se(self) -> np.ndarray:
        return np.sqrt(self.sigma_gg_hat / self.n_effective)


@dataclass(frozen=True)
class CrossFitPlan:
    """Cross-fitting configuration: how many folds, whether they are
    stratified by group, how many splits are drawn, and the seed."""

    n_folds: int = 2
    stratified: bool = False
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_folds < 2:
            raise DomainError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.repeats < 1:
            raise DomainError("repeats must be >= 1")


def validate_dataset(d: Dataset, g: Grouping) -> None:
    """Check every core invariant; raises a specific error on the first failure.

    Every group must hold both treatment arms (OneArmOnly otherwise): a group
    whose rows are all treated or all control identifies no effect."""
    n = d.n
    if n < 1:
        raise LengthMismatch("dataset is empty")
    if d.a.shape[0] != n or d.x.shape[0] != n or g.labels.shape[0] != n:
        raise LengthMismatch(
            f"lengths disagree: y={n}, a={d.a.shape[0]}, x={d.x.shape[0]}, "
            f"labels={g.labels.shape[0]}"
        )
    if not np.all((d.a == 0.0) | (d.a == 1.0)):
        raise NonBinaryTreatment("treatment vector contains values other than 0/1")
    check_covariates_finite(d.x)
    if not np.isfinite(d.y).all():
        raise NonFinite(int(np.argmin(np.isfinite(d.y))))
    if g.n_groups < 1:
        raise EmptyGroup(1)
    if g.labels.min() < 1 or g.labels.max() > g.n_groups:
        raise DomainError(
            f"labels must lie in 1..{g.n_groups}, found range "
            f"[{g.labels.min()}, {g.labels.max()}]"
        )
    counts = g.counts()
    if (counts == 0).any():
        raise EmptyGroup(int(np.argmin(counts)) + 1)
    treated = np.bincount(g.labels, weights=d.a, minlength=g.n_groups + 1)[1:]
    one_arm = (treated == 0) | (treated == counts)
    if one_arm.any():
        raise OneArmOnly(f"group {int(np.argmax(one_arm)) + 1}")


def check_covariates_finite(x: np.ndarray) -> None:
    """Raise NonFinite at the first non-finite covariate, by row and column."""
    finite = np.isfinite(x)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFinite(int(row), int(col))


def _chunk_labels(m: int, k: int) -> np.ndarray:
    """Labels 0..k-1 in k consecutive chunks of m, sizes differing by at most
    one, the larger chunks first."""
    base, rem = divmod(m, k)
    return np.repeat(np.arange(k), [base + 1 if i < rem else base for i in range(k)])


def make_crossfit_plan(
    n: int,
    plan: CrossFitPlan,
    grouping: Optional[Grouping] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """The fold label in 0..n_folds-1 of each of n observations.

    Unstratified folds are a random partition with sizes differing by at
    most one. Stratified folds split every group's members that evenly,
    rotating which fold receives each group's remainder so totals stay
    balanced. Deterministic given the seed.
    """
    if seed is None:
        seed = plan.seed
    k = plan.n_folds
    if n < k:
        raise TooFewSamples(f"cannot split {n} observations into {k} folds")
    if plan.stratified and grouping is None:
        raise DomainError("stratified splitting requires a grouping")
    if plan.stratified and grouping.n != n:
        raise LengthMismatch(f"the grouping has {grouping.n} labels for {n} observations")
    stream = Stream(seed).child("folds")

    fold_of = np.full(n, -1, dtype=np.int64)
    if not plan.stratified:
        fold_of[stream.permutation(n)] = _chunk_labels(n, k)
    else:
        for g in range(1, grouping.n_groups + 1):
            members = np.flatnonzero(grouping.labels == g)
            perm = members[stream.child(g).permutation(len(members))]
            fold_of[perm] = (_chunk_labels(len(members), k) + g - 1) % k
    sizes = np.bincount(fold_of + 1, minlength=k + 1)
    if sizes[0]:
        raise DomainError(f"row {int(fold_of.argmin())} has a group label outside "
                          f"1..{grouping.n_groups}")
    if not sizes[1:].all():
        raise TooFewSamples(f"a fold came out empty splitting {n} observations")
    return fold_of


def relabel_dense(values: Sequence) -> tuple[np.ndarray, dict]:
    """Map arbitrary categorical group values onto dense labels 1..G.

    Values that parse as numbers other than NaN come first, in numeric
    order; the rest, `nan` included, follow as text, and ties (`1`, `1.0`)
    keep the order of first appearance; returns (labels, value -> label).
    """
    uniq = sorted(dict.fromkeys(values), key=_sort_key)
    mapping = {v: i + 1 for i, v in enumerate(uniq)}
    labels = np.asarray([mapping[v] for v in values], dtype=np.int64)
    return labels, mapping


def _sort_key(v):
    try:
        x = float(v)
    except (TypeError, ValueError):
        x = math.nan
    return (0, x, "") if x == x else (1, 0.0, str(v))  # NaN sorts as text


# The largest field limit a C long holds on every platform.
_NO_FIELD_LIMIT = 2**31 - 1


@contextmanager
def _no_field_limit():
    """Lift the csv module's field limit, which is process-global, for one
    read and restore it afterwards, so that the csv-module path accepts every
    cell numpy's reader does."""
    old = csv.field_size_limit(_NO_FIELD_LIMIT)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def csv_rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line, row) for each csv.reader row of path, where line is the file
    line the row starts on, with no limit on a field's length; a tokenizer or
    decoding error is raised as an SslsError naming the file and line."""
    with open(path, newline="") as fh, _no_field_limit():
        reader = csv.reader(fh)
        start = 1
        try:
            for row in reader:
                yield start, row
                start = reader.line_num + 1
        except csv.Error as err:
            raise SslsError(f"{path}: line {reader.line_num}: {err}") from None
        except UnicodeDecodeError:
            raise _decode_error(path, fh.encoding) from None


def _decode_error(path: str, encoding: str) -> SslsError:
    raw = Path(path).read_bytes()
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        return SslsError(f"{path}: line {line}: not valid {encoding} text "
                         f"({err.reason})")
    return SslsError(f"{path}: not valid {encoding} text")


def parse_number(raw: str) -> float:
    """The number in a CSV cell: float() of the cell stripped of surrounding
    whitespace, when that text is ASCII with no '_', which is what numpy's
    reader parses; a ValueError otherwise."""
    text = raw.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _read_columns(path: str, usecols: list[int], group_col: Optional[int]):
    """The columns usecols, the second being the treatment, as an (n, k)
    float64 view, and the stripped cells of group_col (None when unbound), all
    parsed by one np.loadtxt call; a ValueError when there are no data rows or
    a cell is bad. Group cells are read as objects: a fixed-width str field
    would take n times the longest value's width and drop a trailing NUL."""
    fields = [("values", np.float64, (len(usecols),))]
    if group_col is not None:
        fields.append(("group", object))
        usecols = [*usecols, group_col]
    with open(path, newline="") as fh, _no_field_limit(), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns when no row follows the header
        next(csv.reader(fh))  # the header
        table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                           usecols=usecols, dtype=np.dtype(fields), ndmin=1)
    values = table["values"]
    if (values.shape[0] == 0 or not np.isfinite(values).all()
            or not np.all((values[:, 1] == 0.0) | (values[:, 1] == 1.0))):
        raise ValueError("no data rows, a non-finite value or a treatment not 0/1")
    groups = None
    if group_col is not None:
        groups = [v.strip() for v in table["group"].tolist()]
        if "" in groups:
            raise ValueError("an empty group cell")
    return values, groups


def _raise_first_bad_cell(path: str, col_index: dict, numeric: list[str],
                          group: Optional[str], reason: str):
    """Raise the SslsError that names the first bad cell of path, read through
    the csv module. Each bound column is checked over every row in turn: the
    numeric columns in order, the second being the treatment, which must be
    0/1, and the group column last. reason is raised when no cell is bad."""
    records = csv_rows(path)
    next(records)  # the header
    numbered = [record for record in records if record[1]]
    if not numbered:
        raise SslsError(f"{path}: no data rows")
    for k, name in enumerate(numeric if group is None else [*numeric, group]):
        j = col_index[name]
        values = []
        for i, (line, row) in enumerate(numbered):
            at = f"at row {i + 2}, column '{name}' (line {line})"
            raw = row[j].strip() if j < len(row) else ""
            if raw == "":
                raise SslsError(f"{path}: missing value {at}")
            if k == len(numeric):  # the group column holds text
                continue
            try:
                values.append(parse_number(raw))
            except ValueError:
                raise SslsError(f"{path}: cannot parse '{raw}' {at}") from None
            if not math.isfinite(values[-1]):
                raise SslsError(f"{path}: non-finite value {at}")
        if k == 1:
            for i, v in enumerate(values):
                if v not in (0.0, 1.0):
                    raise NonBinaryTreatment(f"{path}: treatment column '{name}' "
                                             f"must be 0/1, found {v} at row {i + 2}")
    raise SslsError(f"{path}: {reason}")


def load_csv(
    path: str,
    outcome: str,
    treatment: str,
    covariates: Sequence[str],
    group: Optional[str] = None,
    propensity: Optional[str] = None,
) -> tuple[Dataset, Optional[Grouping], dict, Optional[np.ndarray]]:
    """Read a headed CSV into a Dataset (+ Grouping when a group column is bound).

    Missing cells and unparseable numbers are hard errors naming the row, the
    column and the file line the row starts on. The group column may hold
    arbitrary categorical values; they are relabeled densely and the mapping
    is returned for the run report. The last value is the propensity column
    when one is bound, else None.

    One np.loadtxt call parses every bound column; a number is what
    parse_number reads. When that call fails or finds a bad cell, the file
    goes to a csv-module walker that only names the first bad cell.
    """
    records = csv_rows(path)
    first = next(records, None)
    records.close()
    if first is None:
        raise SslsError(f"{path}: empty file, header row required")

    header = [h.strip() for h in first[1]]
    bound = [outcome, treatment, *covariates, group, propensity]
    col_index = {}
    for name in [name for name in bound if name is not None]:
        at = [j for j, h in enumerate(header) if h == name]
        if not at:
            raise SslsError(f"{path}: column '{name}' not found in header {header}")
        if len(at) > 1:
            raise SslsError(f"{path}: column '{name}' appears twice in the header, "
                            f"at columns {at[0] + 1} and {at[1] + 1}")
        col_index[name] = at[0]

    numeric = [outcome, treatment, *covariates]
    if propensity is not None:
        numeric.append(propensity)
    try:
        values, groups = _read_columns(path, [col_index[name] for name in numeric],
                                       None if group is None else col_index[group])
    except ValueError as err:
        _raise_first_bad_cell(path, col_index, numeric, group, str(err))
    y, a = (np.ascontiguousarray(values[:, k]) for k in (0, 1))
    x = np.column_stack([values[:, k] for k in range(2, 2 + len(covariates))])
    prop = None if propensity is None else np.ascontiguousarray(values[:, -1])
    del values  # the parsed table, group cells included
    grouping, mapping = None, {}
    if group is not None:
        labels, mapping = relabel_dense(groups)
        grouping = Grouping(labels, int(labels.max()))
    return Dataset(y, a, x), grouping, mapping, prop
