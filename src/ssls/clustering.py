"""Seeded k-means grouping with quality gates for data-driven discovery.

Clusters are canonicalized at fit time (sorted by centroid norm, then
lexicographically) so labels are stable, and the gates reject groupings
that would be statistically unusable downstream: groups below a minimum
size or with only one treatment arm.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, Grouping, check_covariates_finite
from .errors import (ClusteringDegenerate, DomainError, GroupTooSmall, OneArmOnly,
                     TooFewSamples)
from .inference import power_min_n
from .parallel import usable_cpus
from .rng import Stream

DEFAULT_Z_TILDE = 0.5
# Below this many rows a Lloyd pass is too short for numpy's release of the
# GIL to pay for a second thread, and the restarts run on one worker. On two
# x86-64 cores (normal data, p = 5, k = 4) two workers took 1.00 times the
# time of one at 6 000 rows and 0.82 times at 8 000.
_MIN_POOLED_ROWS = 8_000
# Relative stop rules of a Lloyd run: restarts are screened at _SCREEN_TOL,
# and those within _LEAD_MARGIN of the best screened one finish at _TOL. A
# run can creep at 2e-6 a step and then fall to the best optimum: screened at
# 1e-4 or 1e-5, some of 261 test fits kept another restart; at 1e-6 none did.
_TOL = 1e-12
_SCREEN_TOL = 1e-6
_LEAD_MARGIN = 0.01


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

    def resolved_min_size(self) -> int:
        """Minimum group size; defaults to the sample size needed to detect a
        standardized effect z_tilde at level 0.05 with power 0.8."""
        if self.min_group_size is not None:
            return self.min_group_size
        return power_min_n(self.z_tilde)


@dataclass(frozen=True)
class FittedClusterer:
    """Centroids live in the (optionally standardized) fitting space.

    restart is the index of the kept restart, whose Lloyd run gave
    inertia_path; restart_converged holds one flag per restart, True when its
    run stopped on its inertia rule (the screen's, unless it was finished)
    and False when it hit max_iter."""

    centroids: np.ndarray
    col_mean: np.ndarray
    col_scale: np.ndarray
    inertia: float
    inertia_path: tuple
    restart: int = 0
    restart_converged: tuple = (True,)

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


def _sq_dist(zt: np.ndarray, centroids: np.ndarray, buffers=None) -> np.ndarray:
    """(k, n) squared Euclidean distances from the columns of zt, the
    contiguous (p, n) transpose of z, accumulated one feature at a time into
    the first of two (k, n) buffers, which a Lloyd run allocates once.

    Up to 7 features this adds in the same order as summing the (n, k, p)
    broadcast over its last axis, so the result is bit-identical to it; from
    8 features numpy sums pairwise and the two can differ in the last ulp.
    """
    shape = (centroids.shape[0], zt.shape[1])
    d2, term = buffers or (np.empty(shape), np.empty(shape))
    np.square(np.subtract(zt[0], centroids[:, 0, None], out=d2), out=d2)
    for f in range(1, zt.shape[0]):
        d2 += np.square(np.subtract(zt[f], centroids[:, f, None], out=term), out=term)
    return d2


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's nearest centroid and its distance, from (k, n) d2: the
    label counts the rows before the first one at the minimum, so a tie goes
    to the lowest label as in np.argmin(d2, axis=0), in a fifth of its time."""
    dist = d2.min(axis=0)
    found = d2[0] == dist
    labels = np.zeros(d2.shape[1], dtype=np.intp)
    for j in range(1, d2.shape[0]):
        labels += ~found
        found |= d2[j] == dist
    return labels, dist


def _plusplus_init(zt: np.ndarray, k: int, stream: Stream) -> np.ndarray:
    """k-means++ seeding on the columns of zt, the (p, n) transpose of z."""
    p, n = zt.shape
    centroids = np.empty((k, p))
    first = int(stream.integers(1, n)[0])
    centroids[0] = zt[:, first]
    d2 = _sq_dist(zt, centroids[:1])[0]
    for j in range(1, k):
        pick = stream.weighted_index(d2) if d2.sum() > 0 else int(stream.integers(1, n)[0])
        centroids[j] = zt[:, pick]
        d2 = np.minimum(d2, _sq_dist(zt, centroids[j:j + 1])[0])
    return centroids


def _stopped(path: list, tol: float) -> bool:
    """Whether the last Lloyd step saved less than tol of the inertia before."""
    return len(path) > 1 and path[-1] >= path[-2] - tol * path[-2]


def _lloyd(z: np.ndarray, zt: np.ndarray, centroids: np.ndarray, max_iter: int,
           tol: float = _TOL, path: tuple = ()):
    """Lloyd iterations from centroids (updated in place) on the rows of z;
    zt is z's contiguous (p, n) transpose, each feature's column as one row.
    A run given the path of inertias that led to centroids continues it; Lloyd
    is deterministic, so a run stopped at a loose tol and continued at a
    strict one follows the iterates of one strict run. Returns the centroids,
    the labels, the inertia after each iteration (path included) and whether
    the run stopped on _stopped(path, tol) rather than at max_iter in all."""
    k, p = centroids.shape
    path = list(path)
    buffers = (np.empty((k, zt.shape[1])), np.empty((k, zt.shape[1])))
    # The assignment that ends one iteration starts the next: the centroids
    # have not moved in between.
    labels, dist_own = _nearest(_sq_dist(zt, centroids, buffers))
    while not _stopped(path, tol):
        if len(path) >= max_iter:
            return centroids, labels, path, False
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
        labels, dist_own = _nearest(_sq_dist(zt, centroids, buffers))
        inertia = float(dist_own.sum())
        # Neither step can raise the inertia in exact arithmetic; a rise
        # beyond rounding means the data's scale defeats float64.
        if path and inertia > path[-1] + 1e-9 * max(path[-1], 1.0):
            raise ClusteringDegenerate(
                f"inertia increased within a Lloyd run: {path[-1]} -> {inertia}"
            )
        path.append(inertia)
    return centroids, labels, path, True


def fit_kmeans(x: np.ndarray, spec: KMeansSpec) -> FittedClusterer:
    """Best-of-restarts Lloyd iterations from k-means++ style seeding.

    Restart r seeds from the stream Stream(seed).child("kmeans").child(r), so
    the restarts are independent. Every restart is screened, its Lloyd run
    stopped at the loose _SCREEN_TOL; the leaders, the best screened restart
    and any within _LEAD_MARGIN of it, then continue to the strict _TOL, and
    max_iter counts both passes. The kept restart is the leader of lowest
    final inertia, ties to the lowest index: on the designs tested, the one
    that finishing every restart keeps. Both passes run on a thread pool of
    up to the usable CPUs (numpy releases the GIL inside each Lloyd pass); a
    fit below _MIN_POOLED_ROWS rows uses one worker. The result does not
    depend on the CPU count."""
    x = _as_2d(x)
    n, p = x.shape
    if n < spec.n_groups:
        raise TooFewSamples(f"{n} rows cannot form {spec.n_groups} clusters")
    if p == 0:
        raise DomainError("k-means needs at least one covariate column")
    check_covariates_finite(x)
    col_mean = x.mean(axis=0) if spec.standardize else np.zeros(p)
    col_scale = x.std(axis=0) if spec.standardize else np.ones(p)
    col_scale = np.where(col_scale > 0, col_scale, 1.0)
    z = (x - col_mean) / col_scale
    zt = np.ascontiguousarray(z.T)  # shared read-only by every restart

    root = Stream(spec.seed).child("kmeans")

    def screen(r: int):
        init = _plusplus_init(zt, spec.n_groups, root.child(r))
        centroids, _, path, converged = _lloyd(z, zt, init, spec.max_iter, _SCREEN_TOL)
        return centroids, path, converged

    def finish(r: int):
        centroids, path, converged = runs[r]
        if converged and not _stopped(path, _TOL):
            centroids, _, path, converged = _lloyd(z, zt, centroids, spec.max_iter,
                                                   _TOL, path)
        return centroids, path, converged

    workers = 1 if n < _MIN_POOLED_ROWS else min(usable_cpus(), spec.n_restarts)
    # The attribute loads concurrent.futures' thread module on first use, so a
    # process that never clusters does not pay its memory.
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        runs = list(pool.map(screen, range(spec.n_restarts)))
        lead = min(path[-1] for _, path, _ in runs) * (1 + _LEAD_MARGIN)
        leaders = [r for r, (_, path, _) in enumerate(runs) if path[-1] <= lead]
        for r, run in zip(leaders, list(pool.map(finish, leaders))):
            runs[r] = run
    best = min(leaders, key=lambda r: (runs[r][1][-1], r))
    centroids, path, _ = runs[best]
    order = sorted(range(spec.n_groups),
                   key=lambda j: (float(np.linalg.norm(centroids[j])), tuple(centroids[j])))
    return FittedClusterer(centroids=centroids[order], col_mean=col_mean,
                           col_scale=col_scale, inertia=path[-1], inertia_path=tuple(path),
                           restart=best,
                           restart_converged=tuple(run[2] for run in runs))


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
    return Grouping(labels, fc.n_groups)
