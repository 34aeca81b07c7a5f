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

from .data import Dataset, Grouping, GroupSource
from .errors import ClusteringDegenerate, GroupTooSmall, OneArmOnly, TooFewSamples
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
        if self.n_groups < 2:
            raise ValueError("n_groups must be >= 2")
        if self.min_group_size is not None and self.min_group_size < 1:
            raise ValueError("min_group_size must be >= 1")

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

    def _transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        return (x - self.col_mean) / self.col_scale

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Nearest-centroid labels in 1..G; ties go to the lowest label."""
        d2 = _sq_dist(self._transform(x), self.centroids)
        return np.argmin(d2, axis=1).astype(np.int64) + 1


def _sq_dist(z: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, accumulated one feature at a time.

    Up to 7 features this adds in the same order as summing the (n, k, p)
    broadcast over its last axis, so the result is bit-identical to it; from
    8 features numpy sums pairwise and the two can differ in the last ulp.
    """
    zt = np.ascontiguousarray(z.T)  # each feature's column as one contiguous row
    d2 = np.zeros((centroids.shape[0], z.shape[0]))
    for f in range(z.shape[1]):
        d2 += (zt[f] - centroids[:, f, None]) ** 2
    return d2.T


def _plusplus_init(z: np.ndarray, k: int, stream: Stream) -> np.ndarray:
    n = z.shape[0]
    centroids = np.empty((k, z.shape[1]))
    first = int(stream.integers(1, n)[0])
    centroids[0] = z[first]
    d2 = _sq_dist(z, centroids[:1])[:, 0]
    for j in range(1, k):
        pick = stream.weighted_index(d2) if d2.sum() > 0 else int(stream.integers(1, n)[0])
        centroids[j] = z[pick]
        d2 = np.minimum(d2, _sq_dist(z, centroids[j:j + 1])[:, 0])
    return centroids


def _lloyd(z: np.ndarray, centroids: np.ndarray, max_iter: int):
    n, k = z.shape[0], centroids.shape[0]
    rows = np.arange(n)
    # The assignment that ends one iteration starts the next: the centroids
    # have not moved in between.
    d2 = _sq_dist(z, centroids)
    labels = np.argmin(d2, axis=1)
    dist_own = d2[rows, labels]
    path = []
    prev = np.inf
    for _ in range(max_iter):
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = z[members].mean(axis=0)
            else:
                # Re-seed an emptied cluster at the point farthest from its
                # assigned centroid; this can only lower total inertia.
                far = int(np.argmax(dist_own))
                centroids[j] = z[far]
                labels[far] = j
                dist_own[far] = -1.0  # keep later reseeds off this point
        d2 = _sq_dist(z, centroids)
        labels = np.argmin(d2, axis=1)
        dist_own = d2[rows, labels]
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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, p = x.shape
    if n < spec.n_groups:
        raise TooFewSamples(f"{n} rows cannot form {spec.n_groups} clusters")
    if spec.standardize:
        col_mean = x.mean(axis=0)
        col_scale = x.std(axis=0)
        col_scale = np.where(col_scale > 0, col_scale, 1.0)
    else:
        col_mean = np.zeros(p)
        col_scale = np.ones(p)
    z = (x - col_mean) / col_scale

    root = Stream(spec.seed).child("kmeans")
    best_inertia = np.inf
    best_centroids = None
    best_path: list = []
    for r in range(spec.n_restarts):
        stream = root.child(r)
        init = _plusplus_init(z, spec.n_groups, stream)
        centroids, _, path = _lloyd(z, init, spec.max_iter)
        if path[-1] < best_inertia - 1e-12:
            best_inertia = path[-1]
            best_centroids = centroids
            best_path = path
    assert best_centroids is not None
    order = sorted(
        range(spec.n_groups),
        key=lambda j: (
            float(np.linalg.norm(best_centroids[j])),
            tuple(best_centroids[j]),
        ),
    )
    return FittedClusterer(
        centroids=best_centroids[order],
        col_mean=col_mean,
        col_scale=col_scale,
        inertia=best_inertia,
        inertia_path=tuple(best_path),
    )


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
