"""Nuisance-function learners behind a uniform fit/predict interface.

One spec per learner; the slot it fills decides its role. Fitted by
fit_regression it estimates E(Y|X); fitted by fit_propensity it estimates
P(A=1|X), with predictions clipped to [CLIP, 1 - CLIP]. Everything here is
deterministic: tree splits break ties on (lowest feature index, smallest
threshold), and the logistic solver is Newton with step-halving that stops
on the Newton decrement (Boyd & Vandenberghe, Convex Optimization, 9.5).

Trees use exact greedy search over presorted columns (Chen & Guestrin,
KDD 2016, 4.1). What depends on x alone is computed once per fit and shared
by every boosting stage: x by feature, each feature's row order and class,
the root's valid cuts and the cut counts. Per tree, each node scans every
cut of the continuous features with prefix sums. A two-valued feature, such
as a binary indicator, has one cut at any node, after its lower-value block,
so it is scored from that block alone; constant features are skipped. A
child's valid cuts are computed only if it is searched, and growth records
each training row's leaf, so boosting never predicts its own training rows.
Trees of at most _COLUMNWISE_MAX_NODES nodes predict column-wise: each
internal node compares a whole column of x and nested np.where picks the
leaf values; larger trees walk row subsets.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    NonConvergenceWarning,
    NotSPD,
    OneArmOnly,
    PropensityOutOfRange,
    SingularDesign,
    TooFewSamples,
)

CLIP = 0.01  # propensities are clipped to [CLIP, 1 - CLIP]
# Trees of at most this many nodes (all of depth 2) predict column-wise. On
# two x86-64 cores a 7-node tree took 0.4 to 0.8 of the row-subset walk's
# time on 500 to 20 000 rows, and an 11-node tree 0.4 to 1.1.
_COLUMNWISE_MAX_NODES = 7


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class OlsSpec:
    pass


@dataclass(frozen=True)
class RidgeSpec:
    lam: float = 1e-3

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise DomainError(f"ridge penalty must be finite, got {self.lam}")
        if self.lam < 0:
            raise DomainError("ridge penalty must be >= 0")


def _check_tree_spec(spec) -> None:
    """DomainError unless min_leaf >= 1, max_depth >= 0, n_trees >= 0 and
    shrinkage lies in (0, 1] (the last two where the spec has them)."""
    for name, low in (("min_leaf", 1), ("max_depth", 0), ("n_trees", 0)):
        if getattr(spec, name, low) < low:
            raise DomainError(f"{name} must be >= {low}, got {getattr(spec, name)}")
    if not 0.0 < getattr(spec, "shrinkage", 1.0) <= 1.0:
        raise DomainError(f"shrinkage must lie in (0, 1], got {spec.shrinkage}")


@dataclass(frozen=True)
class CartSpec:
    max_depth: int = 2
    min_leaf: int = 10

    def __post_init__(self):
        _check_tree_spec(self)


@dataclass(frozen=True)
class GbmSpec:
    n_trees: int = 100
    max_depth: int = 2
    shrinkage: float = 0.1
    min_leaf: int = 10

    def __post_init__(self):
        _check_tree_spec(self)


@dataclass(frozen=True)
class OracleSpec:
    """Evaluates a known function of the covariate matrix; no fitting."""

    fn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LogisticSpec:
    """Logistic regression of A on X by Newton's method with step-halving.

    `tol` bounds the Newton decrement g'H^-1 g / 2: the gain in
    log-likelihood that one more full Newton step would bring. It is in
    log-likelihood units, so it does not grow with n; it is floored at a
    few ulps of |loglik|, below which a gain cannot be told from rounding.
    The fitted model's `converged` is True when the decrement fell to that
    bound, and False when `max_iter` steps ran out first or step-halving
    found no step that keeps the log-likelihood from falling; either of
    those also raises NonConvergenceWarning and returns the last iterate.
    """

    max_iter: int = 100
    tol: float = 1e-8


@dataclass(frozen=True)
class KnownPropensity:
    """Treatment probabilities supplied by design: a scalar applied to every
    row, or a full column resolved positionally by the cross-fitting layer.

    Every value must be finite and strictly inside (0, 1); otherwise
    construction raises PropensityOutOfRange naming the first bad row.
    """

    values: Union[float, np.ndarray]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim > 1:
            raise DomainError(f"known propensity must be a scalar or a column, "
                              f"got shape {values.shape}")
        bad = np.flatnonzero(~((values > 0.0) & (values < 1.0)))
        if bad.size:
            row = int(bad[0]) if values.ndim else None
            raise PropensityOutOfRange(float(values.flat[bad[0]]), row)
        object.__setattr__(self, "values", values if values.ndim else float(values))


RegressionLearnerSpec = Union[OlsSpec, RidgeSpec, CartSpec, GbmSpec, OracleSpec]
PropensityLearnerSpec = Union[LogisticSpec, CartSpec, GbmSpec, OracleSpec, KnownPropensity]


# ---------------------------------------------------------------------------
# Fitted models


class FittedModel:
    converged: bool = True

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _LinearModel(FittedModel):
    def __init__(self, intercept: float, coef: np.ndarray):
        self.intercept = intercept
        self.coef = coef

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + np.asarray(x, dtype=np.float64) @ self.coef


class _OracleModel(FittedModel):
    def __init__(self, fn):
        self.fn = fn

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=np.float64)), dtype=np.float64)


class _TreeModel(FittedModel):
    """Binary regression tree stored as parallel node arrays."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        n = x.shape[0]
        if self.feature[0] < 0:
            return np.full(n, self.value[0])
        if self.feature.size <= _COLUMNWISE_MAX_NODES:
            return self._columnwise(np.asfortranarray(x), 0)
        out = np.empty(n)
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            go_left = x[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], np.compress(go_left, idx)))
            stack.append((self.right[node], np.compress(~go_left, idx)))
        return out

    def _columnwise(self, x: np.ndarray, node: int):
        """The predictions of the subtree at node: every internal node
        compares one whole column of x, and np.where picks the leaf values."""
        if self.feature[node] < 0:
            return self.value[node]
        return np.where(x[:, self.feature[node]] <= self.threshold[node],
                        self._columnwise(x, self.left[node]),
                        self._columnwise(x, self.right[node]))


class _GbmModel(FittedModel):
    def __init__(self, base: float, trees: list, shrinkage: float,
                 train_mse_path: np.ndarray):
        self.base = base
        self.trees = trees
        self.shrinkage = shrinkage
        self.train_mse_path = train_mse_path

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asfortranarray(x, dtype=np.float64)  # trees read whole columns
        out = np.full(x.shape[0], self.base)
        for tree in self.trees:
            out += self.shrinkage * tree.predict(x)
        return out


class _LogisticModel(FittedModel):
    def __init__(self, intercept, coef, converged):
        self.intercept = intercept
        self.coef = coef
        self.converged = converged

    def predict(self, x: np.ndarray) -> np.ndarray:
        eta = self.intercept + np.asarray(x, dtype=np.float64) @ self.coef
        return 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))


class _ClippedModel(FittedModel):
    """A fitted propensity model whose predictions lie in [CLIP, 1 - CLIP]."""

    def __init__(self, inner: FittedModel):
        self.inner = inner
        self.converged = inner.converged

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.clip(self.inner.predict(x), CLIP, 1.0 - CLIP)


# ---------------------------------------------------------------------------
# Tree machinery


_Presort = namedtuple("_Presort", "xt ids order n_cont pos0 offsets valid low counts work")


def _presort(x: np.ndarray, min_leaf: int) -> _Presort:
    """What the split search needs of x alone, computed once per fit.

    Features are classed on the training rows as continuous, two-valued or
    constant (never searched). ``ids`` holds each feature's stable row
    order, by class in that order and by feature index within one;
    ``order[r]`` is the feature of row r, ``pos0`` the row of feature 0 and
    ``offsets`` the continuous rows' offsets into ``xt.ravel()``. Also kept:
    x by feature, the continuous root `_valid_cuts`, each two-valued
    feature's lower-value block size at the root, the counts 1..n as floats,
    and five scratch rows per continuous feature for the split search's
    temporaries. Reusing those rows at every node keeps a fit from
    allocating, and the OS from paging in, fresh arrays per node."""
    xt = np.ascontiguousarray(x.T)
    p, n = xt.shape
    ids = np.argsort(xt, axis=1, kind="stable")
    xs = xt.ravel()[ids + np.arange(0, xt.size, n)[:, None]]  # x[ids[j], j]
    lo, hi = xs[:, 0], xs[:, -1]
    two = ((xs == lo[:, None]) | (xs == hi[:, None])).all(axis=1) & (lo < hi)
    cont = ~two & (lo != hi)
    order = np.concatenate([np.flatnonzero(cont), np.flatnonzero(two),
                            np.flatnonzero(~cont & ~two)])
    ids = ids[order]
    n_cont = int(cont.sum())
    offsets = order[:n_cont, None] * n
    return _Presort(xt, ids, order, n_cont, int(np.flatnonzero(order == 0)[0]), offsets,
                    _valid_cuts(xt, ids[:n_cont], offsets, min_leaf),
                    (xs[two] == lo[two, None]).sum(axis=1).tolist(),
                    np.arange(1.0, n + 1.0), np.empty((5, n_cont * n)))


def _valid_cuts(xt: np.ndarray, ids: np.ndarray, offsets: np.ndarray,
                min_leaf: int) -> np.ndarray:
    """valid[r, i]: a cut after the node's (min_leaf + i)-th smallest value
    of the feature at ``offsets[r]`` in ``xt.ravel()`` separates two distinct
    values."""
    m = ids.shape[1]
    xs = xt.ravel()[ids + offsets]
    return xs[:, min_leaf - 1:m - min_leaf] < xs[:, min_leaf:m - min_leaf + 1]


def _best_split_sorted(pre: _Presort, y: np.ndarray, ids: np.ndarray,
                       valid: Optional[np.ndarray], low: list, ys: np.ndarray,
                       y0: np.ndarray, total: float, min_leaf: int):
    """Exact variance-reduction split search over all features.

    ``ids[r]`` holds this node's rows ordered by feature ``pre.order[r]``
    (kept by presort-and-filter, so nothing is sorted here), ``ys`` is
    ``y[ids]`` on the continuous rows, ``y0 = y[ids[pre.pos0]]`` and
    ``total = y0.sum()``. ``valid`` is the continuous features' `_valid_cuts`,
    or None to compute them, and ``low`` the size of each two-valued
    feature's lower-value block in this node. Returns (feature, threshold,
    gain) or None; exact ties resolve to the lowest feature index, then the
    smallest threshold, and a NaN gain at any valid cut means no split.

    A two-valued feature's rows in its own order are its lower block, then
    the rest, each in row order. So its one cut's left sums are the last
    entries of np.add.accumulate over that block, as the scan sums them, and
    its gain is the scan's expression in the scan's order of operations.
    """
    pc, m = ys.shape
    work = pre.work
    sq = np.multiply(ys, ys, work[0, :pc * m].reshape(pc, m))
    sq0 = sq[0] if pre.pos0 < pc else y0 * y0
    total_sq = float(sq0.sum())
    parent_sse = total_sq - total * total / m
    if parent_sse <= 1e-12 * max(total_sq, 1e-300):
        return None  # node is pure up to rounding
    best = None  # (gain, feature, row of ids, left count)
    if pc:
        if valid is None:
            valid = _valid_cuts(pre.xt, ids[:pc], pre.offsets, min_leaf)
        lo, hi = min_leaf - 1, m - min_leaf  # cuts after sorted positions lo..hi-1
        w = hi - lo
        left_n = pre.counts[lo:hi]
        left_sum = np.add.accumulate(ys, 1, None, work[1, :pc * m].reshape(pc, m))[:, lo:hi]
        left_sq = np.add.accumulate(sq, 1, None, work[2, :pc * m].reshape(pc, m))[:, lo:hi]
        # gains = parent_sse - (left_sq - left_sum**2 / left_n)
        #         - ((total_sq - left_sq) - right_sum**2 / right_n), in scratch rows
        gains = np.multiply(left_sum, left_sum, work[3, :pc * w].reshape(pc, w))
        np.divide(gains, left_n, gains)
        np.subtract(left_sq, gains, gains)
        right = np.subtract(total, left_sum, work[4, :pc * w].reshape(pc, w))
        np.multiply(right, right, right)
        np.divide(right, left_n[::-1], right)
        sse_right = np.subtract(total_sq, left_sq, work[0, :pc * w].reshape(pc, w))
        np.subtract(sse_right, right, sse_right)
        np.subtract(parent_sse, gains, gains)
        np.subtract(gains, sse_right, gains)
        np.putmask(gains, ~valid, -np.inf)
        r, i = divmod(int(np.argmax(gains)), w)
        gain = float(gains[r, i])
        if gain != gain:  # NaN
            return None
        best = (gain, pre.order[r], r, min_leaf + i)
    for r, c in enumerate(low, pc):
        if not min_leaf <= c <= m - min_leaf:
            continue
        block = y0[:c] if r == pre.pos0 else y[ids[r, :c]]
        left_sum = float(np.add.accumulate(block)[-1])
        left_sq = float(np.add.accumulate(sq0[:c] if r == pre.pos0 else block * block)[-1])
        right_sum = total - left_sum
        gain = ((parent_sse - (left_sq - left_sum * left_sum / c))
                - ((total_sq - left_sq) - right_sum * right_sum / (m - c)))
        if gain != gain:  # NaN
            return None
        j = pre.order[r]
        if best is None or gain > best[0] or (gain == best[0] and j < best[1]):
            best = (gain, j, r, c)
    if best is None or not best[0] > 0.0:
        return None
    gain, j, r, k = best
    a, b = float(pre.xt[j, ids[r, k - 1]]), float(pre.xt[j, ids[r, k]])
    mid = 0.5 * (a + b)  # a + b overflows only where a and b share a sign
    return int(j), mid if np.isfinite(mid) else a + 0.5 * (b - a), gain


def _grow_tree(y: np.ndarray, max_depth: int, min_leaf: int,
               pre: _Presort) -> tuple[_TreeModel, np.ndarray]:
    """One tree on targets y, and the leaf each row of y ends in. Nodes are
    numbered depth-first as their parent splits; the rows of a leaf at
    max_depth are partitioned in feature 0's order only."""
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_of = np.empty(y.shape[0], dtype=np.int64)
    pc, pos0 = pre.n_cont, pre.pos0

    def new_node() -> int:
        for column, blank in zip((feature, threshold, left, right, value),
                                 (-1, 0.0, -1, -1, 0.0)):
            column.append(blank)
        return len(feature) - 1

    stack = [(new_node(), pre.ids, pre.valid, pre.low, 0)]
    while stack:
        node, ids, valid, low, depth = stack.pop()
        p, m = ids.shape
        searched = depth < max_depth and m >= 2 * min_leaf
        ys = y[ids[:pc]] if searched else None
        y0 = ys[0] if searched and pos0 < pc else y[ids[pos0]]
        total = y0.sum()
        value[node] = float(total / m)  # what y[ids[pos0]].mean() computes
        split = searched and _best_split_sorted(pre, y, ids, valid, low, ys, y0,
                                                float(total), min_leaf)
        if not split:
            leaf_of[ids[pos0]] = node
            continue
        feature[node], threshold[node], _ = split
        left[node], right[node] = new_node(), new_node()
        go_left = pre.xt[feature[node]] <= threshold[node]
        # np.compress, not a boolean index: the same rows, several times faster
        if depth + 1 == max_depth:  # the children are leaves
            sel = go_left[ids[pos0]]
            for child, rows in ((left[node], np.compress(sel, ids[pos0])),
                                (right[node], np.compress(~sel, ids[pos0]))):
                value[child] = float(y[rows].sum() / rows.size)
                leaf_of[rows] = child
            continue
        sel = go_left[ids]
        m_left = int(np.count_nonzero(sel[pos0]))
        low_left = [int(np.count_nonzero(sel[r, :c])) for r, c in enumerate(low, pc)]
        stack.append((left[node], np.compress(sel.ravel(), ids).reshape(p, m_left), None,
                      low_left, depth + 1))
        stack.append((right[node], np.compress(~sel.ravel(), ids).reshape(p, m - m_left),
                      None, [c - c_left for c, c_left in zip(low, low_left)], depth + 1))
    return _TreeModel(feature, threshold, left, right, value), leaf_of


def _fit_gbm(x: np.ndarray, y: np.ndarray, spec: GbmSpec) -> _GbmModel:
    base = float(y.mean())
    fitted = np.full(y.shape[0], base)
    trees = []
    resid = y - fitted
    mse_path = [float(np.mean(resid ** 2))]
    pre = _presort(x, spec.min_leaf)  # x never changes across stages
    for _ in range(spec.n_trees):
        tree, leaf_of = _grow_tree(resid, spec.max_depth, spec.min_leaf, pre)
        fitted = fitted + spec.shrinkage * tree.value[leaf_of]
        trees.append(tree)
        resid = y - fitted
        mse_path.append(float(np.mean(resid ** 2)))
    return _GbmModel(base, trees, spec.shrinkage, np.asarray(mse_path))


# ---------------------------------------------------------------------------
# Linear machinery


def linear_solve_spd(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b for symmetric positive definite m; NotSPD unless m is
    symmetric and its Cholesky factorisation exists."""
    m = np.asarray(m, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSPD(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > 1e-8 * scale:
        raise NotSPD("matrix is not symmetric")
    m = 0.5 * (m + m.T)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotSPD("matrix is not positive definite") from None
    return np.linalg.solve(m, b)


def _solve_linear(x: np.ndarray, y: np.ndarray, lam: float):
    n, p = x.shape
    design = np.column_stack([np.ones(n), x])
    gram = design.T @ design
    if lam > 0.0:
        penalty = lam * np.eye(p + 1)
        penalty[0, 0] = 0.0  # intercept unpenalized
        gram = gram + penalty
    eigvals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if eigvals[0] <= 1e-10 * max(eigvals[-1], 1e-300):
        if lam == 0.0:
            raise SingularDesign(
                f"rank-deficient design (min eig {eigvals[0]:.3e}); "
                "drop collinear columns or use ridge"
            )
        gram = gram + (1e-12 * np.trace(gram)) * np.eye(p + 1)
    beta = linear_solve_spd(gram, design.T @ y)
    return float(beta[0]), beta[1:]


def _fit_logistic(x: np.ndarray, a: np.ndarray, spec: LogisticSpec) -> _LogisticModel:
    n, p = x.shape
    design = np.column_stack([np.ones(n), x])
    beta = np.zeros(p + 1)

    def loglik(b):
        eta = np.clip(design @ b, -500, 500)
        return float(a @ eta - np.logaddexp(0.0, eta).sum())

    current = loglik(beta)
    converged = False
    for it in range(spec.max_iter + 1):
        eta = np.clip(design @ beta, -500, 500)
        prob = 1.0 / (1.0 + np.exp(-eta))
        grad = design.T @ (a - prob)
        w = prob * (1.0 - prob)
        hess = (design * w[:, None]).T @ design
        hess += (1e-10 * max(np.trace(hess), 1e-10)) * np.eye(p + 1)
        step = linear_solve_spd(hess, grad)
        # below a few ulps of |loglik| a gain is rounding noise, whatever tol says
        decrement = 0.5 * float(grad @ step)
        converged = decrement <= max(spec.tol, 4.0 * np.spacing(abs(current)))
        if converged or it == spec.max_iter:
            break
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            cand_ll = loglik(candidate)
            if cand_ll >= current:
                beta = candidate
                current = cand_ll
                break
            scale *= 0.5
        else:
            break  # no improving step; stop at current iterate
    if converged and loglik(beta + step) >= current:
        beta = beta + step  # near the optimum the last step is quadratically exact
    if not converged:
        warnings.warn(
            "logistic fit stopped before reaching tolerance; returning last iterate",
            NonConvergenceWarning,
        )
    return _LogisticModel(float(beta[0]), beta[1:], converged)


# ---------------------------------------------------------------------------
# Public entry points


def _check_matrix(x, target) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    target = np.asarray(target, dtype=np.float64)
    if x.shape[0] != target.shape[0]:
        raise DomainError(f"x has {x.shape[0]} rows but target has {target.shape[0]}")
    return x, target


def _check_rows(spec, x: np.ndarray) -> None:
    """TooFewSamples below 2 rows, or below 2 * min_leaf for a tree spec: a
    tree that cannot split would predict one constant."""
    if x.shape[0] < max(2 * getattr(spec, "min_leaf", 1), 2):
        raise TooFewSamples(
            f"{x.shape[0]} rows is too few to fit {type(spec).__name__}"
        )


def fit_regression(spec: RegressionLearnerSpec, x, y) -> FittedModel:
    """Fit a conditional-mean learner for E(Y|X)."""
    x, y = _check_matrix(x, y)
    if isinstance(spec, OracleSpec):
        return _OracleModel(spec.fn)
    _check_rows(spec, x)
    if isinstance(spec, OlsSpec):
        return _LinearModel(*_solve_linear(x, y, 0.0))
    if isinstance(spec, RidgeSpec):
        return _LinearModel(*_solve_linear(x, y, spec.lam))
    if isinstance(spec, CartSpec):
        return _grow_tree(y, spec.max_depth, spec.min_leaf,
                          _presort(x, spec.min_leaf))[0]
    if isinstance(spec, GbmSpec):
        return _fit_gbm(x, y, spec)
    raise TypeError(f"unknown regression spec {spec!r}")


def fit_propensity(spec: PropensityLearnerSpec, x, a) -> FittedModel:
    """Fit a treatment-probability learner; the fitted model is wrapped in
    _ClippedModel, so its predictions are clipped to [CLIP, 1 - CLIP] and
    its `inner` is the unclipped model."""
    if isinstance(spec, KnownPropensity):
        raise DomainError("known propensities are resolved by cross-fitting, "
                          "not fitted")
    x, a = _check_matrix(x, a)
    if isinstance(spec, OracleSpec):
        return _ClippedModel(_OracleModel(spec.fn))
    if not ((a == 1.0).any() and (a == 0.0).any()):
        raise OneArmOnly("training sample")
    _check_rows(spec, x)
    if isinstance(spec, LogisticSpec):
        model = _fit_logistic(x, a, spec)
    elif isinstance(spec, CartSpec):
        model = _grow_tree(a, spec.max_depth, spec.min_leaf,
                           _presort(x, spec.min_leaf))[0]
    elif isinstance(spec, GbmSpec):
        model = _fit_gbm(x, a, spec)
    else:
        raise TypeError(f"unknown propensity spec {spec!r}")
    return _ClippedModel(model)


def learner_spec(name: str, role: str, truth=None):
    """The spec of the learner called name (case-insensitive) in role
    "outcome" or "propensity". "ridge:lam" sets the ridge penalty; "oracle"
    evaluates truth.outcome_mean or truth.propensity, given a truth only;
    "ols-logistic", a Monte-Carlo study's learner, is ols or logistic."""
    name = name.lower()
    if name == "ols-logistic":
        name = "ols" if role == "outcome" else "logistic"
    if name == "oracle" and truth is not None:
        return OracleSpec(truth.outcome_mean if role == "outcome" else truth.propensity)
    if name in ("cart", "gbm"):
        return CartSpec() if name == "cart" else GbmSpec()
    if role == "outcome" and name == "ols":
        return OlsSpec()
    base, colon, lam = name.partition(":")
    if role == "outcome" and base == "ridge":
        if not colon:
            return RidgeSpec()
        try:
            penalty = float(lam)
        except ValueError:
            raise DomainError(f"ridge penalty must be a number, got '{lam}'") from None
        return RidgeSpec(penalty)
    if role == "propensity" and name == "logistic":
        return LogisticSpec()
    expected = "ols, ridge[:lam], cart, gbm" if role == "outcome" else "logistic, cart, gbm"
    raise DomainError(f"unknown {role} learner '{name}' (expected {expected})")
