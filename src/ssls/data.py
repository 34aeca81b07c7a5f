"""Core data model: datasets, groupings, cross-fit plans, effect estimates."""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyGroup,
    LengthMismatch,
    NonBinaryTreatment,
    NonFinite,
    PropensityOutOfRange,
    SslsError,
    TooFewSamples,
)
from .rng import Stream


class GroupSource(enum.Enum):
    FIXED_RULE = "fixed_rule"
    FITTED = "fitted"


def _as_float_vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class Dataset:
    """Observed sample: outcome y, binary treatment a, covariate matrix x.

    ``known_propensity`` holds per-row treatment probabilities when the
    assignment mechanism is known (e.g. a designed experiment).
    """

    y: np.ndarray
    a: np.ndarray
    x: np.ndarray
    known_propensity: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float_vector(self.y))
        object.__setattr__(self, "a", _as_float_vector(self.a))
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        object.__setattr__(self, "x", x)
        if self.known_propensity is not None:
            object.__setattr__(
                self, "known_propensity", _as_float_vector(self.known_propensity)
            )

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        prop = None if self.known_propensity is None else self.known_propensity[idx]
        return Dataset(self.y[idx], self.a[idx], self.x[idx], prop)


@dataclass(frozen=True)
class Grouping:
    """Per-observation group labels in 1..n_groups and their provenance."""

    labels: np.ndarray
    n_groups: int
    source: GroupSource = GroupSource.FIXED_RULE

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-d integer vector")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_groups + 1)[1:]

    def indicator(self) -> np.ndarray:
        """N x G 0/1 membership matrix."""
        out = np.zeros((self.n, self.n_groups))
        out[np.arange(self.n), self.labels - 1] = 1.0
        return out

    def subset(self, idx: np.ndarray) -> "Grouping":
        return Grouping(self.labels[idx], self.n_groups, self.source)


@dataclass(frozen=True)
class GroupEffects:
    """Estimated groupwise effects with plug-in asymptotic variances.

    ``sigma_gg_hat`` is the variance of sqrt(n_effective) * (tau_hat - tau),
    i.e. pre-division by the sample size; standard errors are
    sqrt(sigma_gg_hat / n_effective). ``denominators`` stores the raw
    per-group sums of squared treatment residuals that scale the estimator.
    """

    tau_hat: np.ndarray
    sigma_gg_hat: np.ndarray
    n_g: np.ndarray
    n_effective: int
    residuals: np.ndarray
    denominators: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.tau_hat.shape[0]

    def se(self) -> np.ndarray:
        return np.sqrt(self.sigma_gg_hat / self.n_effective)

    def to_dict(self) -> dict:
        return {
            "n_effective": int(self.n_effective),
            "groups": [
                {
                    "g": g + 1,
                    "n_g": int(self.n_g[g]),
                    "tau_hat": float(self.tau_hat[g]),
                    "se": float(self.se()[g]),
                    "sigma_gg_hat": float(self.sigma_gg_hat[g]),
                }
                for g in range(self.n_groups)
            ],
            "residual_summary": {
                "mean": float(np.mean(self.residuals)),
                "sd": float(np.std(self.residuals)),
                "min": float(np.min(self.residuals)),
                "max": float(np.max(self.residuals)),
            },
        }


@dataclass(frozen=True)
class CrossFitPlan:
    """Cross-fitting configuration, optionally with materialized folds."""

    n_folds: int = 2
    stratified: bool = False
    repeats: int = 1
    seed: int = 0
    folds: tuple = ()

    @property
    def materialized(self) -> bool:
        return len(self.folds) > 0

    @property
    def n(self) -> int:
        return int(sum(len(f) for f in self.folds))

    def fold_of(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        for k, idx in enumerate(self.folds):
            out[idx] = k
        return out


def validate_dataset(d: Dataset, g: Grouping) -> None:
    """Check every core invariant; raises a specific error on the first failure."""
    n = d.n
    if n < 1:
        raise LengthMismatch("dataset is empty")
    if d.a.shape[0] != n or d.x.shape[0] != n or g.labels.shape[0] != n:
        raise LengthMismatch(
            f"lengths disagree: y={n}, a={d.a.shape[0]}, x={d.x.shape[0]}, "
            f"labels={g.labels.shape[0]}"
        )
    if d.known_propensity is not None and d.known_propensity.shape[0] != n:
        raise LengthMismatch("known_propensity length differs from y")
    if not np.all((d.a == 0.0) | (d.a == 1.0)):
        raise NonBinaryTreatment("treatment vector contains values other than 0/1")
    finite = np.isfinite(d.x)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFinite(int(row), int(col))
    if not np.isfinite(d.y).all():
        raise NonFinite(int(np.argmin(np.isfinite(d.y))))
    if d.known_propensity is not None:
        bad = ~((d.known_propensity > 0.0) & (d.known_propensity < 1.0))
        if bad.any():
            raise PropensityOutOfRange(int(np.argmax(bad)))
    if g.n_groups < 1:
        raise EmptyGroup(1)
    if g.labels.min() < 1 or g.labels.max() > g.n_groups:
        raise ValueError(
            f"labels must lie in 1..{g.n_groups}, found range "
            f"[{g.labels.min()}, {g.labels.max()}]"
        )
    counts = g.counts()
    if (counts == 0).any():
        raise EmptyGroup(int(np.argmin(counts)) + 1)


def _chunk_sizes(m: int, k: int) -> list[int]:
    base, rem = divmod(m, k)
    return [base + 1 if i < rem else base for i in range(k)]


def make_crossfit_plan(
    n: int,
    plan: CrossFitPlan | None = None,
    grouping: Optional[Grouping] = None,
    seed: Optional[int] = None,
) -> CrossFitPlan:
    """Materialize fold assignments for n observations.

    Unstratified folds are a random partition with sizes differing by at
    most one. Stratified folds split every group's members that evenly,
    rotating which fold receives each group's remainder so totals stay
    balanced. Deterministic given the seed.
    """
    if plan is None:
        plan = CrossFitPlan()
    if seed is None:
        seed = plan.seed
    k = plan.n_folds
    if k < 2:
        raise ValueError(f"n_folds must be >= 2, got {k}")
    if n < k:
        raise TooFewSamples(f"cannot split {n} observations into {k} folds")
    if plan.stratified and grouping is None:
        raise ValueError("stratified splitting requires a grouping")
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


def relabel_dense(values: Sequence) -> tuple[np.ndarray, dict]:
    """Map arbitrary categorical group values onto dense labels 1..G.

    Values are ordered numerically when all parse as numbers, otherwise
    lexicographically; returns (labels, original-value -> label mapping).
    """
    uniq = sorted(set(values), key=_sort_key)
    mapping = {v: i + 1 for i, v in enumerate(uniq)}
    labels = np.asarray([mapping[v] for v in values], dtype=np.int64)
    return labels, mapping


def _sort_key(v):
    try:
        return (0, float(v), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(v))


def load_csv(
    path: str,
    outcome: str,
    treatment: str,
    covariates: Sequence[str],
    group: Optional[str] = None,
    propensity: Optional[str] = None,
) -> tuple[Dataset, Optional[Grouping], dict]:
    """Read a headed CSV into a Dataset (+ Grouping when a group column is bound).

    Missing cells and unparseable numbers are hard errors naming the row and
    column. The group column may hold arbitrary categorical values; they are
    relabeled densely and the mapping is returned for the run report.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SslsError(f"{path}: empty file, header row required") from None
        rows = [row for row in reader if row]

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

    def cell(row_i: int, name: str) -> str:
        row = rows[row_i]
        j = col_index[name]
        if j >= len(row) or row[j].strip() == "":
            raise SslsError(f"{path}: missing value at row {row_i + 2}, column '{name}'")
        return row[j].strip()

    def numeric(row_i: int, name: str) -> float:
        raw = cell(row_i, name)
        try:
            v = float(raw)
        except ValueError:
            raise SslsError(
                f"{path}: cannot parse '{raw}' at row {row_i + 2}, column '{name}'"
            ) from None
        if not math.isfinite(v):
            raise SslsError(
                f"{path}: non-finite value at row {row_i + 2}, column '{name}'"
            )
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
    dataset = Dataset(y, a_raw, x, prop)

    grouping = None
    mapping: dict = {}
    if group is not None:
        labels, mapping = relabel_dense([cell(i, group) for i in range(n)])
        grouping = Grouping(labels, int(labels.max()), GroupSource.FIXED_RULE)
    return dataset, grouping, mapping
