"""Seeded k-means grouping with quality gates for data-driven discovery.

Clusters are canonicalized at fit time (sorted by centroid norm, then
lexicographically) so labels are stable, and the gates reject groupings
that would be statistically unusable downstream: groups below a minimum
size or with only one treatment arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, Grouping, GroupSource, check_covariates_finite
from .errors import (ClusteringDegenerate, DomainError, GroupTooSmall, OneArmOnly,
                     TooFewSamples)
from .inference import power_min_n
from .rng import Stream

DEFAULT_Z_TILDE = 0.5


@dataclass(frozen=True)
class KMeansSpec:
    n_groups: int
    max_iter: int = 100
    n_restarts: int = 10
    min_group_size: Optional[int] = None
    seed: int = 0
    standardize: bool = True
    z_tilde: float = DEFAULT_Z_TILDE

    def __post_init__(self):
        """DomainError unless n_groups >= 2, max_iter >= 1, n_restarts >= 1
        and min_group_size, when given, >= 1."""
        for name, low in (("n_groups", 2), ("max_iter", 1), ("n_restarts", 1),
                          ("min_group_size", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise DomainError(f"{name} must be >= {low}, got {value}")

    def resolved_min_size(self, alpha: float = 0.05, power: float = 0.8) -> int:
        """Minimum group size; defaults to the sample size needed to detect a
        standardized effect z_tilde at the given level and power."""
        if self.min_group_size is not None:
            return self.min_group_size
        return power_min_n(self.z_tilde, alpha=alpha, power=power)


@dataclass(frozen=True)
class FittedClusterer:
    """Centroids live in the (optionally standardized) fitting space."""

    centroids: np.ndarray
    col_mean: np.ndarray
    col_scale: np.ndarray
    inertia: float
    inertia_path: tuple

    @property
    def n_groups(self) -> int:
        return self.centroids.shape[0]

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Nearest-centroid labels in 1..G; ties go to the lowest label.
        NonFinite names the first non-finite covariate, by row and column."""
        x = _as_2d(x)
        check_covariates_finite(x)
        zt = np.ascontiguousarray(((x - self.col_mean) / self.col_scale).T)
        return _nearest(_sq_dist(zt, self.centroids))[0].astype(np.int64) + 1


def _as_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _sq_dist(zt: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, n) squared Euclidean distances from the columns of zt, the
    contiguous (p, n) transpose of z, accumulated one feature at a time.

    Up to 7 features this adds in the same order as summing the (n, k, p)
    broadcast over its last axis, so the result is bit-identical to it; from
    8 features numpy sums pairwise and the two can differ in the last ulp.
    """
    d2 = np.zeros((centroids.shape[0], zt.shape[1]))
    for f in range(zt.shape[0]):
        d2 += (zt[f] - centroids[:, f, None]) ** 2
    return d2


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's nearest centroid and its distance, from (k, n) d2 by a
    running minimum over the k rows; the strict < gives a tie to the lowest
    label, as np.argmin(d2, axis=0) does."""
    labels = np.zeros(d2.shape[1], dtype=np.intp)
    dist = d2[0].copy()
    for j in range(1, d2.shape[0]):
        np.putmask(labels, d2[j] < dist, j)
        np.minimum(dist, d2[j], out=dist)
    return labels, dist


def _plusplus_init(z: np.ndarray, k: int, stream: Stream) -> np.ndarray:
    n = z.shape[0]
    zt = np.ascontiguousarray(z.T)
    centroids = np.empty((k, z.shape[1]))
    first = int(stream.integers(1, n)[0])
    centroids[0] = z[first]
    d2 = _sq_dist(zt, centroids[:1])[0]
    for j in range(1, k):
        pick = stream.weighted_index(d2) if d2.sum() > 0 else int(stream.integers(1, n)[0])
        centroids[j] = z[pick]
        d2 = np.minimum(d2, _sq_dist(zt, centroids[j:j + 1])[0])
    return centroids


def _lloyd(z: np.ndarray, centroids: np.ndarray, max_iter: int):
    k, p = centroids.shape
    zt = np.ascontiguousarray(z.T)  # each feature's column as one contiguous row
    # The assignment that ends one iteration starts the next: the centroids
    # have not moved in between.
    labels, dist_own = _nearest(_sq_dist(zt, centroids))
    path = []
    prev = np.inf
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=k)
        if p > 1 and counts.all():
            # bincount adds each cluster's rows in row order, as
            # z[members].mean(axis=0) does. The loop below stays for p = 1,
            # whose one contiguous column numpy sums pairwise, and for a
            # reseed, which moves rows between clusters one at a time.
            for f in range(p):
                centroids[:, f] = np.bincount(labels, weights=zt[f], minlength=k) / counts
        else:
            for j in range(k):
                members = labels == j
                if members.any():
                    centroids[j] = z[members].mean(axis=0)
                else:
                    # Re-seed an emptied cluster at the point farthest from
                    # its assigned centroid; this can only lower total inertia.
                    far = int(np.argmax(dist_own))
                    centroids[j] = z[far]
                    labels[far] = j
                    dist_own[far] = -1.0  # keep later reseeds off this point
        labels, dist_own = _nearest(_sq_dist(zt, centroids))
        inertia = float(dist_own.sum())
        if inertia > prev + 1e-9 * max(prev, 1.0):
            raise AssertionError(
                f"inertia increased within a Lloyd run: {prev} -> {inertia}"
            )
        path.append(inertia)
        if inertia >= prev - 1e-12 * max(prev, 1.0):
            break
        prev = inertia
    return centroids, labels, path


def fit_kmeans(x: np.ndarray, spec: KMeansSpec) -> FittedClusterer:
    """Best-of-restarts Lloyd iterations from k-means++ style seeding."""
    x = _as_2d(x)
    n, p = x.shape
    if n < spec.n_groups:
        raise TooFewSamples(f"{n} rows cannot form {spec.n_groups} clusters")
    check_covariates_finite(x)
    col_mean = x.mean(axis=0) if spec.standardize else np.zeros(p)
    col_scale = x.std(axis=0) if spec.standardize else np.ones(p)
    col_scale = np.where(col_scale > 0, col_scale, 1.0)
    z = (x - col_mean) / col_scale

    root = Stream(spec.seed).child("kmeans")
    best = None
    for r in range(spec.n_restarts):
        init = _plusplus_init(z, spec.n_groups, root.child(r))
        centroids, _, path = _lloyd(z, init, spec.max_iter)
        if best is None or path[-1] < best[1][-1] - 1e-12:
            best = centroids, path
    centroids, path = best
    order = sorted(range(spec.n_groups),
                   key=lambda j: (float(np.linalg.norm(centroids[j])), tuple(centroids[j])))
    return FittedClusterer(centroids=centroids[order], col_mean=col_mean,
                           col_scale=col_scale, inertia=path[-1], inertia_path=tuple(path))


def gate_grouping(fc: FittedClusterer, d: Dataset, spec: KMeansSpec) -> Grouping:
    """Assign labels and enforce the usability gates.

    Labels come out dense 1..G ordered by centroid norm (canonicalized at
    fit time). Rejects a fitted cluster that no row falls in, then groups
    below the minimum size and groups containing a single treatment arm,
    since all three make the groupwise estimate useless.
    """
    labels = fc.assign(d.x)
    counts = np.bincount(labels, minlength=fc.n_groups + 1)[1:]
    if (counts == 0).any():
        raise ClusteringDegenerate(
            "fitted clusters do not all appear in the estimation sample"
        )
    min_size = spec.resolved_min_size()
    for g in range(fc.n_groups):
        if counts[g] < min_size:
            raise GroupTooSmall(g + 1, int(counts[g]), min_size)
    for g in range(1, fc.n_groups + 1):
        arms = d.a[labels == g]
        if not ((arms == 1.0).any() and (arms == 0.0).any()):
            raise OneArmOnly(f"group {g}")
    return Grouping(labels, fc.n_groups, GroupSource.FITTED)
