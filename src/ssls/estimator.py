"""Groupwise treatment effect estimation via cross-fitted least squares.

The pipeline: fit the outcome mean and the propensity on each fold's
complement, evaluate them out-of-fold, orthogonalize (y - m_hat against
a - e_hat), and run groupwise least squares on the indicator design. The
closed form below is numerically identical to generic least squares with a
sandwich covariance applied to v = (a - e_hat) * group indicators.
repeated_ssls is the one split-and-estimate step: estimate, discover (through
estimate_dssls) and every Monte-Carlo replicate run it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .clustering import FittedClusterer, KMeansSpec, fit_kmeans, gate_grouping
from .data import (
    CrossFitPlan,
    Dataset,
    GroupEffects,
    Grouping,
    check_covariates_finite,
    make_crossfit_plan,
    validate_dataset,
)
from .errors import (
    DegenerateGroup,
    DomainError,
    FoldsNotPartition,
    LengthMismatch,
    OneArmOnly,
    TooFewSamples,
)
from .inference import check_variances
from .learners import (
    CartSpec,
    GbmSpec,
    KnownPropensity,
    PropensityLearnerSpec,
    RegressionLearnerSpec,
    fit_propensity,
    fit_regression,
)
from .parallel import fork_join, usable_cpus
from .rng import Stream

# Below this many tree-rows (trees grown x training rows) in a fold's
# heaviest learner, a forked process costs more than it saves, and the folds
# run in this process. On two x86-64 cores, two folds of a 100-tree GBM
# outcome and a logistic propensity took 1.30 times the serial time forked
# at 75 training rows, 1.03 at 100 and 0.76 at 150.
_MIN_FORKED_WORK = 15_000

# Every propensity is clipped to [CLIP, 1 - CLIP], a trimming rule on the
# closed form's weights (a - e_hat)^2 (Crump, Hotz, Imbens & Mitnik 2009).
CLIP = 0.01

# Rounding units of the outcome's scale within which a standard error is zero.
_ROUNDING_SE = 64


@dataclass(frozen=True)
class SslsConfig:
    regression_spec: RegressionLearnerSpec
    propensity_spec: PropensityLearnerSpec
    plan: CrossFitPlan


@dataclass(frozen=True)
class NuisanceFit:
    """Out-of-fold nuisance predictions: m_hat for E(Y|X), e_hat for e(X)."""

    m_hat: np.ndarray
    e_hat: np.ndarray
    fold_of: np.ndarray


@dataclass(frozen=True)
class DsslsResult:
    """Effects on the estimation rows, with the first split's nuisance fit
    on those rows."""

    effects: GroupEffects
    nuisance: NuisanceFit
    grouping: Grouping
    estimation_indices: np.ndarray
    clustering_indices: np.ndarray
    clusterer: Optional[FittedClusterer]


def _known_column(spec: KnownPropensity, n: int) -> np.ndarray:
    """The known propensity for each of n rows, unclipped: a scalar is
    broadcast, a column must have exactly n entries."""
    if np.ndim(spec.values) == 0:
        return np.full(n, spec.values)
    if spec.values.shape[0] != n:
        raise LengthMismatch(
            f"known propensity column has {spec.values.shape[0]} entries "
            f"for {n} observations"
        )
    return spec.values


def _checked_fold_labels(fold_of, n: int, n_folds: int) -> np.ndarray:
    """fold_of as given; FoldsNotPartition unless it is n integers in
    0..n_folds-1."""
    fold_of = np.asarray(fold_of)
    if fold_of.ndim != 1 or fold_of.dtype.kind not in "iu":
        raise FoldsNotPartition(f"fold labels must be a vector of integers, got "
                                f"{fold_of.dtype} of shape {fold_of.shape}")
    if fold_of.shape[0] != n:
        raise FoldsNotPartition(f"the folds hold {fold_of.shape[0]} rows for {n} observations")
    bad = (fold_of < 0) | (fold_of >= n_folds)
    if bad.any():
        row = int(bad.argmax())
        raise FoldsNotPartition(f"fold label {fold_of[row]} of row {row} is outside "
                                f"0..{n_folds - 1}")
    return fold_of


def _tree_count(spec) -> int:
    """Trees one fit of spec grows: n_trees for GBM, one for CART, none for
    a linear, oracle or known learner."""
    return spec.n_trees if isinstance(spec, GbmSpec) else int(isinstance(spec, CartSpec))


def crossfit_nuisance(
    d: Dataset,
    cfg: SslsConfig,
    grouping: Optional[Grouping] = None,
    fold_of: Optional[np.ndarray] = None,
) -> NuisanceFit:
    """Train nuisances on each fold's complement, predict on the fold.

    fold_of holds each row's fold label; it is drawn from cfg.plan when not
    given, and FoldsNotPartition is raised unless the labels given are n
    integers in 0..n_folds-1. With a grouping, the dataset is validated
    before anything is fitted. A known propensity's scalar or column is
    copied through instead of fitted; any other propensity spec is fitted
    on each fold's complement, which must hold both arms. Either way e_hat
    is then clipped once to [CLIP, 1 - CLIP].

    The folds are jobs of parallel.fork_join on usable_cpus() workers, or on
    one when the heaviest learner grows fewer than _MIN_FORKED_WORK
    tree-rows. Their predictions, warnings and first error are those of
    fitting the folds one after another, whatever the CPU count.
    """
    n = d.n
    n_folds = cfg.plan.n_folds
    if fold_of is None:
        fold_of = make_crossfit_plan(n, cfg.plan, grouping=grouping)
    else:
        fold_of = _checked_fold_labels(fold_of, n, n_folds)
    if grouping is not None:
        validate_dataset(d, grouping)
    m_hat = np.empty(n)
    e_hat = np.empty(n)
    spec_e = cfg.propensity_spec
    known = isinstance(spec_e, KnownPropensity)
    if known:
        e_hat[:] = _known_column(spec_e, n)

    def fold(k: int) -> tuple:
        test_idx = np.flatnonzero(fold_of == k)
        train_idx = np.flatnonzero(fold_of != k)
        if train_idx.size == 0:
            raise TooFewSamples(f"fold {k} has an empty training complement")
        e_k = None
        if not known:
            a_train = d.a[train_idx]
            if not ((a_train == 1.0).any() and (a_train == 0.0).any()):
                raise OneArmOnly(f"training complement of fold {k}")
            model_e = fit_propensity(spec_e, d.x[train_idx], a_train)
            e_k = model_e.predict(d.x[test_idx])
        model_m = fit_regression(cfg.regression_spec, d.x[train_idx], d.y[train_idx])
        return model_m.predict(d.x[test_idx]), e_k

    train_rows = n - np.bincount(fold_of, minlength=n_folds).min()
    work = max(_tree_count(cfg.regression_spec), _tree_count(spec_e)) * train_rows
    workers = usable_cpus() if work >= _MIN_FORKED_WORK else 1
    for k, (m_k, e_k) in enumerate(fork_join(fold, n_folds, workers)):
        m_hat[fold_of == k] = m_k
        if e_k is not None:
            e_hat[fold_of == k] = e_k
    np.clip(e_hat, CLIP, 1.0 - CLIP, out=e_hat)
    return NuisanceFit(m_hat=m_hat, e_hat=e_hat, fold_of=fold_of)


def estimate_ssls(d: Dataset, g: Grouping, nf: NuisanceFit) -> GroupEffects:
    """Groupwise effect estimates with plug-in diagonal variances.

    tau_hat_g = sum_{i in g} (y_i - m_i)(a_i - e_i) / sum_{i in g} (a_i - e_i)^2
    sigma_gg = [mean of resid^2 (a-e)^2 over g] / [mean of (a-e)^2 over g]^2

    A sigma_gg whose standard error sqrt(sigma_gg / n) is at most
    _ROUNDING_SE = 64 times eps * max|y| (eps the float64 machine epsilon) is
    returned as 0, which check_variances rejects: every residual is rounded
    at the outcome's scale, so such a variance is rounding, not noise. On
    DGP1 with an exactly constant outcome it stayed below 0.8 eps * max|y|
    with ols, ridge, cart and gbm outcome models.
    """
    validate_dataset(d, g)
    n = d.n
    r_y = d.y - nf.m_hat
    r_a = d.a - nf.e_hat
    labels0 = g.labels - 1
    n_groups = g.n_groups
    den = np.bincount(labels0, weights=r_a * r_a, minlength=n_groups)
    for idx in np.flatnonzero(den <= 1e-12):
        raise DegenerateGroup(int(idx) + 1, float(den[idx]))
    num = np.bincount(labels0, weights=r_y * r_a, minlength=n_groups)
    tau_hat = num / den
    residuals = r_y - r_a * tau_hat[labels0]
    meat = np.bincount(labels0, weights=residuals**2 * r_a**2, minlength=n_groups)
    sigma_gg = (meat / n) / (den / n) ** 2
    rounding_se = _ROUNDING_SE * np.finfo(np.float64).eps * np.abs(d.y).max()
    sigma_gg[sigma_gg / n <= rounding_se**2] = 0.0
    n_g = np.bincount(labels0, minlength=n_groups)
    return GroupEffects(
        tau_hat=tau_hat,
        sigma_gg_hat=sigma_gg,
        n_g=n_g.astype(np.int64),
        n_effective=n,
        residuals=residuals,
    )


def aggregate_effects(runs: list[GroupEffects]) -> GroupEffects:
    """Component-wise median across repeated splits.

    The variance estimates are medians too, with no adjustment for the
    aggregation itself; downstream reports should carry the repeat count so
    readers can judge split-to-split stability.
    """
    if not runs:
        raise DomainError("no runs to aggregate")
    if len(runs) == 1:
        return runs[0]
    tau = np.median(np.stack([r.tau_hat for r in runs]), axis=0)
    sigma = np.median(np.stack([r.sigma_gg_hat for r in runs]), axis=0)
    resid = np.median(np.stack([r.residuals for r in runs]), axis=0)
    first = runs[0]
    return GroupEffects(
        tau_hat=tau,
        sigma_gg_hat=sigma,
        n_g=first.n_g,
        n_effective=first.n_effective,
        residuals=resid,
    )


def repeated_ssls(
    d: Dataset, g: Grouping, cfg: SslsConfig, seeds: Optional[list[int]] = None
) -> tuple[GroupEffects, NuisanceFit]:
    """The split-and-estimate step of every pipeline and study: for each seed
    in turn, draw the folds of cfg.plan from it, cross-fit, take the closed
    form and check its variances, then return the component-wise medians
    (one split's effects unchanged) with the first split's nuisance fit.
    seeds defaults to the keys of children 0..cfg.plan.repeats-1 of the plan
    seed's "repeat" stream. DomainError for an empty seed list;
    ZeroVarianceGroup names a group whose variance is zero in some split."""
    if seeds is None:
        root = Stream(cfg.plan.seed).child("repeat")
        seeds = [root.child(s).key for s in range(cfg.plan.repeats)]
    if not seeds:
        raise DomainError("repeated_ssls needs at least one split seed, got an empty list")
    runs = []
    for seed in seeds:
        fold_of = make_crossfit_plan(d.n, cfg.plan, grouping=g, seed=seed)
        nf = crossfit_nuisance(d, cfg, grouping=g, fold_of=fold_of)
        if not runs:
            first_fit = nf
        runs.append(check_variances(estimate_ssls(d, g, nf)))
    return aggregate_effects(runs), first_fit


def _three_way_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    perm = Stream(seed).child("thirds").permutation(n)
    base, rem = divmod(n, 3)
    first = base + (1 if rem > 0 else 0)
    cluster_idx = np.sort(perm[:first])
    est_idx = np.sort(perm[first:])
    return cluster_idx, est_idx


def estimate_dssls(
    d: Dataset,
    cluster_spec: Union[KMeansSpec, Callable[[np.ndarray], np.ndarray]],
    cfg: SslsConfig,
) -> DsslsResult:
    """Discover groups on one third of the data, estimate on the other two.

    The clustering third is drawn first by the seeded stream and never
    reused; effects and variances are computed on the remaining two thirds,
    so confidence intervals scale with that (2N/3-sized) sample. The
    estimation is repeated_ssls on those rows: the clustering third is drawn
    once, and only the cross-fitting folds are redrawn for each of
    cfg.plan.repeats splits. Split 0 draws its folds from the key of the
    plan seed's "dssls-estimation" stream, split s >= 1 from that stream's
    child s.
    """
    n = d.n
    if n < 3 * cfg.plan.n_folds:
        raise TooFewSamples(
            f"{n} observations cannot support a three-way split with "
            f"{cfg.plan.n_folds}-fold cross-fitting"
        )
    cluster_idx, est_idx = _three_way_split(n, cfg.plan.seed)
    d_est = d.subset(est_idx)
    spec_e = cfg.propensity_spec
    if isinstance(spec_e, KnownPropensity):
        spec_e = replace(spec_e, values=_known_column(spec_e, n)[est_idx])

    check_covariates_finite(d.x)  # by row of d, before either third is used
    clusterer = None
    if callable(cluster_spec):
        labels_est = np.asarray(cluster_spec(d_est.x), dtype=np.int64)
        n_groups = int(labels_est.max())
        grouping = Grouping(labels_est, n_groups)
    else:
        clusterer = fit_kmeans(d.x[cluster_idx], cluster_spec)
        grouping = gate_grouping(clusterer, d_est, cluster_spec)

    root = Stream(cfg.plan.seed).child("dssls-estimation")
    seeds = [root.key] + [root.child(s).key for s in range(1, cfg.plan.repeats)]
    effects, nf = repeated_ssls(d_est, grouping, replace(cfg, propensity_spec=spec_e),
                                seeds)
    return DsslsResult(
        effects=effects,
        nuisance=nf,
        grouping=grouping,
        estimation_indices=est_idx,
        clustering_indices=cluster_idx,
        clusterer=clusterer,
    )
