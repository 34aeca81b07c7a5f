"""Nuisance-function learners behind a uniform fit/predict interface.

Regression learners estimate E(Y|X); propensity learners estimate
P(A=1|X) and clip predictions away from 0 and 1. Everything here is
deterministic: tree splits break ties on (lowest feature index, smallest
threshold), and the logistic solver is Newton with step-halving that stops
on the Newton decrement (Boyd & Vandenberghe, Convex Optimization, 9.5).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonConvergenceWarning, OneArmOnly, SingularDesign, TooFewSamples
from .transformed_ls import linear_solve_spd

DEFAULT_CLIP = 0.01


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class OlsSpec:
    pass


@dataclass(frozen=True)
class RidgeSpec:
    lam: float = 1e-3

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("ridge penalty must be >= 0")


@dataclass(frozen=True)
class CartSpec:
    max_depth: int = 2
    min_leaf: int = 10


@dataclass(frozen=True)
class GbmSpec:
    n_trees: int = 100
    max_depth: int = 2
    shrinkage: float = 0.1
    min_leaf: int = 10

    def __post_init__(self):
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must lie in (0, 1]")


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
    clip: float = DEFAULT_CLIP


@dataclass(frozen=True)
class CartProbSpec:
    max_depth: int = 2
    min_leaf: int = 10
    clip: float = DEFAULT_CLIP


@dataclass(frozen=True)
class GbmProbSpec:
    n_trees: int = 100
    max_depth: int = 2
    shrinkage: float = 0.1
    min_leaf: int = 10
    clip: float = DEFAULT_CLIP


@dataclass(frozen=True)
class KnownPropensity:
    """Treatment probabilities supplied by design: a scalar applied to every
    row, or a full column resolved positionally by the cross-fitting layer."""

    values: Union[float, np.ndarray]
    clip: float = DEFAULT_CLIP


@dataclass(frozen=True)
class OracleProbSpec:
    fn: Callable[[np.ndarray], np.ndarray]
    clip: float = DEFAULT_CLIP


RegressionLearnerSpec = Union[OlsSpec, RidgeSpec, CartSpec, GbmSpec, OracleSpec]
PropensityLearnerSpec = Union[
    LogisticSpec, CartProbSpec, GbmProbSpec, KnownPropensity, OracleProbSpec
]


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
    def __init__(self, fn, clip: Optional[float] = None):
        self.fn = fn
        self.clip = clip

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        if self.clip is not None:
            out = np.clip(out, self.clip, 1.0 - self.clip)
        return out


class _ConstantModel(FittedModel):
    def __init__(self, value: float, clip: Optional[float] = None):
        if clip is not None:
            value = min(max(value, clip), 1.0 - clip)
        self.value = value

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[0], self.value)


class _TreeModel(FittedModel):
    """Binary regression tree stored as parallel node arrays."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        n = x.shape[0]
        out = np.empty(n)
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            go_left = x[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out


class _GbmModel(FittedModel):
    def __init__(self, base: float, trees: list, shrinkage: float,
                 train_mse_path: np.ndarray):
        self.base = base
        self.trees = trees
        self.shrinkage = shrinkage
        self.train_mse_path = train_mse_path

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.full(x.shape[0], self.base)
        for tree in self.trees:
            out += self.shrinkage * tree.predict(x)
        return out


class _LogisticModel(FittedModel):
    def __init__(self, intercept, coef, clip, converged):
        self.intercept = intercept
        self.coef = coef
        self.clip = clip
        self.converged = converged

    def predict(self, x: np.ndarray) -> np.ndarray:
        eta = self.intercept + np.asarray(x, dtype=np.float64) @ self.coef
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))
        return np.clip(p, self.clip, 1.0 - self.clip)


class _ClippedModel(FittedModel):
    def __init__(self, inner: FittedModel, clip: float):
        self.inner = inner
        self.clip = clip
        self.converged = inner.converged

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.clip(self.inner.predict(x), self.clip, 1.0 - self.clip)


# ---------------------------------------------------------------------------
# Tree machinery


def _best_split_sorted(x: np.ndarray, y: np.ndarray, sorted_ids: np.ndarray,
                       min_leaf: int):
    """Exact variance-reduction split search over all features at once.

    ``sorted_ids[:, j]`` holds this node's member rows ordered by feature j
    (maintained by presort-and-filter, so no sorting happens here). Returns
    (feature, threshold, gain) or None; exact ties resolve to the lowest
    feature index, then the smallest threshold (feature-major argmax scan).
    """
    n, p = sorted_ids.shape
    if n < 2 * min_leaf:
        return None
    ys = y[sorted_ids]
    total = ys[:, 0].sum()
    total_sq = (ys[:, 0] ** 2).sum()
    parent_sse = total_sq - total * total / n
    if parent_sse <= 1e-12 * max(total_sq, 1e-300):
        return None  # node is pure up to rounding
    ks = np.arange(min_leaf, n - min_leaf + 1)
    if ks.size == 0:
        return None
    xs = x[sorted_ids, np.arange(p)[None, :]]
    cum = np.cumsum(ys, axis=0)
    cum_sq = np.cumsum(ys * ys, axis=0)
    left_n = ks[:, None].astype(np.float64)
    left_sum = cum[ks - 1, :]
    left_sq = cum_sq[ks - 1, :]
    sse_left = left_sq - left_sum * left_sum / left_n
    right_n = n - left_n
    right_sum = total - left_sum
    right_sq = total_sq - left_sq
    sse_right = right_sq - right_sum * right_sum / right_n
    gains = parent_sse - sse_left - sse_right
    valid = xs[ks - 1, :] < xs[ks, :]
    gains = np.where(valid, gains, -np.inf)
    flat = int(np.argmax(gains.T))  # feature-major: lowest feature, then lowest k
    j, i = divmod(flat, ks.size)
    gain = float(gains[i, j])
    if not gain > 0.0:
        return None
    k = int(ks[i])
    return j, 0.5 * (xs[k - 1, j] + xs[k, j]), gain


def _grow_tree(x: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int,
               presort: Optional[np.ndarray] = None) -> _TreeModel:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    if presort is None:
        presort = np.argsort(x, axis=0, kind="stable")
    p = x.shape[1]
    root = new_node()
    stack = [(root, presort, 0)]
    while stack:
        node, sorted_ids, depth = stack.pop()
        member_rows = sorted_ids[:, 0]
        value[node] = float(y[member_rows].mean())
        if depth >= max_depth or sorted_ids.shape[0] < 2 * min_leaf:
            continue
        split = _best_split_sorted(x, y, sorted_ids, min_leaf)
        if split is None:
            continue
        j, thr, _ = split
        go_left = x[:, j] <= thr
        sel = go_left[sorted_ids]
        m_left = int(sel[:, 0].sum())
        left_ids = sorted_ids.T[sel.T].reshape(p, m_left).T
        right_ids = sorted_ids.T[~sel.T].reshape(p, sorted_ids.shape[0] - m_left).T
        feature[node] = j
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], left_ids, depth + 1))
        stack.append((right[node], right_ids, depth + 1))
    return _TreeModel(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=np.float64),
    )


def _fit_gbm(x: np.ndarray, y: np.ndarray, spec) -> _GbmModel:
    base = float(y.mean())
    fitted = np.full(y.shape[0], base)
    trees = []
    mse_path = [float(np.mean((y - fitted) ** 2))]
    presort = np.argsort(x, axis=0, kind="stable")  # x never changes across stages
    for _ in range(spec.n_trees):
        tree = _grow_tree(x, y - fitted, spec.max_depth, spec.min_leaf,
                          presort=presort)
        fitted = fitted + spec.shrinkage * tree.predict(x)
        trees.append(tree)
        mse_path.append(float(np.mean((y - fitted) ** 2)))
    return _GbmModel(base, trees, spec.shrinkage, np.asarray(mse_path))


# ---------------------------------------------------------------------------
# Linear machinery


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
    return _LogisticModel(float(beta[0]), beta[1:], spec.clip, converged)


# ---------------------------------------------------------------------------
# Public entry points


def _check_matrix(x, target) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    target = np.asarray(target, dtype=np.float64)
    if x.shape[0] != target.shape[0]:
        raise ValueError(f"x has {x.shape[0]} rows but target has {target.shape[0]}")
    return x, target


def fit_regression(spec: RegressionLearnerSpec, x, y) -> FittedModel:
    """Fit a conditional-mean learner for E(Y|X)."""
    x, y = _check_matrix(x, y)
    if isinstance(spec, OracleSpec):
        return _OracleModel(spec.fn)
    min_needed = 2 * getattr(spec, "min_leaf", 2)
    if x.shape[0] < max(min_needed, 2):
        raise TooFewSamples(
            f"{x.shape[0]} rows is too few to fit {type(spec).__name__}"
        )
    if isinstance(spec, OlsSpec):
        return _LinearModel(*_solve_linear(x, y, 0.0))
    if isinstance(spec, RidgeSpec):
        return _LinearModel(*_solve_linear(x, y, spec.lam))
    if isinstance(spec, CartSpec):
        return _grow_tree(x, y, spec.max_depth, spec.min_leaf)
    if isinstance(spec, GbmSpec):
        return _fit_gbm(x, y, spec)
    raise TypeError(f"unknown regression spec {spec!r}")


def fit_propensity(spec: PropensityLearnerSpec, x, a) -> FittedModel:
    """Fit a treatment-probability learner; predictions are clipped."""
    if isinstance(spec, KnownPropensity):
        if np.ndim(spec.values) == 0:
            return _ConstantModel(float(spec.values), spec.clip)
        raise ValueError(
            "column-valued known propensities are resolved positionally by "
            "cross-fitting; fit_propensity only accepts a scalar"
        )
    x, a = _check_matrix(x, a)
    if isinstance(spec, OracleProbSpec):
        return _OracleModel(spec.fn, clip=spec.clip)
    if not ((a == 1.0).any() and (a == 0.0).any()):
        raise OneArmOnly("training sample")
    if isinstance(spec, LogisticSpec):
        return _fit_logistic(x, a, spec)
    if isinstance(spec, CartProbSpec):
        tree = _grow_tree(x, a, spec.max_depth, spec.min_leaf)
        return _ClippedModel(tree, spec.clip)
    if isinstance(spec, GbmProbSpec):
        gbm = _fit_gbm(x, a, GbmSpec(spec.n_trees, spec.max_depth,
                                     spec.shrinkage, spec.min_leaf))
        return _ClippedModel(gbm, spec.clip)
    raise TypeError(f"unknown propensity spec {spec!r}")


def propensity_needs_fitting(spec: PropensityLearnerSpec) -> bool:
    return not isinstance(spec, (KnownPropensity, OracleProbSpec))
