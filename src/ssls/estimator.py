"""Groupwise treatment effect estimation via cross-fitted least squares.

The pipeline: fit the outcome mean and the propensity on each fold's
complement, evaluate them out-of-fold, orthogonalize (y - m_hat against
a - e_hat), and run groupwise least squares on the indicator design. The
closed form below is numerically identical to the generic engine in
``transformed_ls`` applied to v = (a - e_hat) * group indicators.
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
    GroupSource,
    check_covariates_finite,
    make_crossfit_plan,
    validate_dataset,
)
from .errors import DegenerateGroup, LengthMismatch, OneArmOnly, TooFewSamples
from .inference import check_variances
from .learners import (
    KnownPropensity,
    OracleProbSpec,
    PropensityLearnerSpec,
    RegressionLearnerSpec,
    fit_propensity,
    fit_regression,
)
from .rng import Stream
from .transformed_ls import TransformedSample


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
    effects: GroupEffects
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


def crossfit_nuisance(
    d: Dataset,
    cfg: SslsConfig,
    grouping: Optional[Grouping] = None,
) -> NuisanceFit:
    """Train nuisances on each fold's complement, predict on the fold.

    With a grouping, the dataset is validated before anything is fitted.
    Known propensities bypass fitting entirely: the supplied scalar or
    column is copied through (after clipping). Oracle propensities skip the
    one-arm check but are still evaluated fold by fold.
    """
    n = d.n
    plan = cfg.plan
    if not plan.materialized or plan.n != n:
        plan = make_crossfit_plan(n, plan, grouping=grouping)
    if grouping is not None:
        validate_dataset(d, grouping)
    m_hat = np.empty(n)
    e_hat = np.empty(n)
    spec_e = cfg.propensity_spec
    if isinstance(spec_e, KnownPropensity):
        e_hat[:] = np.clip(_known_column(spec_e, n), spec_e.clip, 1.0 - spec_e.clip)
    for k, test_idx in enumerate(plan.folds):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train_idx = np.flatnonzero(mask)
        if train_idx.size == 0:
            raise TooFewSamples(f"fold {k} has an empty training complement")
        if not isinstance(spec_e, KnownPropensity):
            a_train = d.a[train_idx]
            if not isinstance(spec_e, OracleProbSpec) and not (
                (a_train == 1.0).any() and (a_train == 0.0).any()
            ):
                raise OneArmOnly(f"training complement of fold {k}")
            model_e = fit_propensity(spec_e, d.x[train_idx], a_train)
            e_hat[test_idx] = model_e.predict(d.x[test_idx])
        model_m = fit_regression(cfg.regression_spec, d.x[train_idx], d.y[train_idx])
        m_hat[test_idx] = model_m.predict(d.x[test_idx])
    return NuisanceFit(m_hat=m_hat, e_hat=e_hat, fold_of=plan.fold_of())


def estimate_ssls(d: Dataset, g: Grouping, nf: NuisanceFit) -> GroupEffects:
    """Groupwise effect estimates with plug-in diagonal variances.

    tau_hat_g = sum_{i in g} (y_i - m_i)(a_i - e_i) / sum_{i in g} (a_i - e_i)^2
    sigma_gg = [mean of resid^2 (a-e)^2 over g] / [mean of (a-e)^2 over g]^2
    """
    validate_dataset(d, g)
    n = d.n
    if n < 2 * g.n_groups:
        raise TooFewSamples(
            f"{n} observations cannot support {g.n_groups} groups"
        )
    r_y = d.y - nf.m_hat
    r_a = d.a - nf.e_hat
    labels0 = g.labels - 1
    n_groups = g.n_groups
    denominators = np.bincount(labels0, weights=r_a * r_a, minlength=n_groups)
    for idx in np.flatnonzero(denominators <= 1e-12):
        raise DegenerateGroup(int(idx) + 1, float(denominators[idx]))
    numerators = np.bincount(labels0, weights=r_y * r_a, minlength=n_groups)
    tau_hat = numerators / denominators
    residuals = r_y - r_a * tau_hat[labels0]
    meat = np.bincount(labels0, weights=residuals**2 * r_a**2, minlength=n_groups)
    sigma_gg = (meat / n) / (denominators / n) ** 2
    n_g = np.bincount(labels0, minlength=n_groups)
    return GroupEffects(
        tau_hat=tau_hat,
        sigma_gg_hat=sigma_gg,
        n_g=n_g.astype(np.int64),
        n_effective=n,
        residuals=residuals,
        denominators=denominators,
    )


def transformed_sample_from_nuisance(
    d: Dataset, g: Grouping, nf: NuisanceFit
) -> TransformedSample:
    """Robinson-transformed variables for the generic LS engine."""
    v_hat = (d.a - nf.e_hat)[:, None] * g.indicator()
    return TransformedSample(z_hat=d.y - nf.m_hat, v_hat=v_hat, fold_of=nf.fold_of)


def single_run(
    d: Dataset, g: Grouping, cfg: SslsConfig, seed: int
) -> tuple[GroupEffects, NuisanceFit]:
    """One split: folds of cfg.plan drawn from seed, cross-fitted nuisances,
    the closed form, and ZeroVarianceGroup for a group with no variance."""
    plan = make_crossfit_plan(d.n, cfg.plan, grouping=g, seed=seed)
    nf = crossfit_nuisance(d, replace(cfg, plan=plan), grouping=g)
    return check_variances(estimate_ssls(d, g, nf)), nf


def aggregate_effects(runs: list[GroupEffects]) -> GroupEffects:
    """Component-wise median across repeated splits.

    The variance estimates are medians too, with no adjustment for the
    aggregation itself; downstream reports should carry the repeat count so
    readers can judge split-to-split stability.
    """
    if not runs:
        raise ValueError("no runs to aggregate")
    if len(runs) == 1:
        return runs[0]
    tau = np.median(np.stack([r.tau_hat for r in runs]), axis=0)
    sigma = np.median(np.stack([r.sigma_gg_hat for r in runs]), axis=0)
    resid = np.median(np.stack([r.residuals for r in runs]), axis=0)
    denom = np.median(np.stack([r.denominators for r in runs]), axis=0)
    first = runs[0]
    return GroupEffects(
        tau_hat=tau,
        sigma_gg_hat=sigma,
        n_g=first.n_g,
        n_effective=first.n_effective,
        residuals=resid,
        denominators=denom,
    )


def _repeated_runs(
    d: Dataset, g: Grouping, cfg: SslsConfig
) -> tuple[GroupEffects, NuisanceFit]:
    """repeated_ssls, also returning the first split's nuisance fit."""
    repeats = cfg.plan.repeats
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    root = Stream(cfg.plan.seed).child("repeat")
    first, first_fit = single_run(d, g, cfg, seed=root.child(0).key)
    runs = [first] + [
        single_run(d, g, cfg, seed=root.child(s).key)[0] for s in range(1, repeats)
    ]
    return aggregate_effects(runs), first_fit


def repeated_ssls(d: Dataset, g: Grouping, cfg: SslsConfig) -> GroupEffects:
    """Run the pipeline cfg.plan.repeats times on fresh splits, take medians.
    ZeroVarianceGroup names a group whose variance is zero in some split."""
    return _repeated_runs(d, g, cfg)[0]


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
    so confidence intervals scale with that (2N/3-sized) sample.
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
        grouping = Grouping(labels_est, n_groups, GroupSource.FIXED_RULE)
    else:
        clusterer = fit_kmeans(d.x[cluster_idx], cluster_spec)
        grouping = gate_grouping(clusterer, d_est, cluster_spec)

    seed_est = Stream(cfg.plan.seed).child("dssls-estimation").key
    effects, _ = single_run(d_est, grouping, replace(cfg, propensity_spec=spec_e),
                            seed=seed_est)
    return DsslsResult(
        effects=effects,
        grouping=grouping,
        estimation_indices=est_idx,
        clustering_indices=cluster_idx,
        clusterer=clusterer,
    )
