"""k-means fitting, canonical labels, quality gates."""

import concurrent.futures
import sys
import threading

import numpy as np
import pytest

from ssls import clustering
from ssls.clustering import FittedClusterer, KMeansSpec, fit_kmeans, gate_grouping
from ssls.data import Dataset
from ssls.errors import (ClusteringDegenerate, DomainError, GroupTooSmall, NonFinite,
                         SslsError, TooFewSamples)
from ssls.rng import Stream


def blobs(n_per, centers, seed=0, sd=1.0):
    s = Stream(seed)
    parts = []
    for c in centers:
        parts.append(s.normal(n_per * len(c)).reshape(n_per, len(c)) * sd + np.asarray(c))
    return np.vstack(parts)


def test_two_points_two_clusters():
    x = np.array([[0.0, 0.0], [10.0, 10.0]])
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=1, standardize=False))
    assert fc.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(map(tuple, fc.centroids)) == [(0.0, 0.0), (10.0, 10.0)]


def test_blob_recovery():
    x = blobs(100, [(-10.0, -10.0), (10.0, 10.0)], seed=2)
    truth = np.array([1] * 100 + [2] * 100)
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=3))
    labels = fc.assign(x)
    direct = (labels == truth).mean()
    assert max(direct, 1 - direct) >= 0.99


def test_inertia_path_non_increasing():
    x = blobs(150, [(-2.0, 0.0), (2.0, 0.0), (0.0, 3.0)], seed=4)
    fc = fit_kmeans(x, KMeansSpec(n_groups=3, seed=5))
    path = fc.inertia_path
    assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))


def test_duplicate_rows_double_inertia():
    x = blobs(80, [(-8.0,), (8.0,)], seed=6)
    spec = KMeansSpec(n_groups=2, seed=7, standardize=False)
    fc1 = fit_kmeans(x, spec)
    fc2 = fit_kmeans(np.vstack([x, x]), spec)
    assert np.allclose(np.sort(fc1.centroids, axis=0),
                       np.sort(fc2.centroids, axis=0), atol=1e-8)
    assert fc2.inertia == pytest.approx(2.0 * fc1.inertia, rel=1e-6)


def test_assign_reproduces_training_labels():
    x = blobs(60, [(-5.0, 1.0), (5.0, -1.0)], seed=8)
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=9))
    once = fc.assign(x)
    again = fc.assign(x)
    assert np.array_equal(once, again)
    # assigning the final centroids' own members keeps them in place
    z = (x - fc.col_mean) / fc.col_scale
    for g in (1, 2):
        members = z[once == g]
        d_own = ((members - fc.centroids[g - 1]) ** 2).sum(axis=1)
        d_other = ((members - fc.centroids[2 - g]) ** 2).sum(axis=1)
        assert (d_own <= d_other).all()


def test_determinism():
    x = blobs(50, [(-3.0, 0.0), (3.0, 0.0)], seed=10)
    spec = KMeansSpec(n_groups=2, seed=11)
    a = fit_kmeans(x, spec)
    b = fit_kmeans(x, spec)
    assert np.array_equal(a.centroids, b.centroids)


def test_labels_ordered_by_centroid_norm():
    x = blobs(50, [(9.0, 9.0), (0.5, 0.5)], seed=12, sd=0.3)
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=13, standardize=False))
    norms = np.linalg.norm(fc.centroids, axis=1)
    assert norms[0] < norms[1]


def test_too_few_rows():
    with pytest.raises(TooFewSamples):
        fit_kmeans(np.zeros((1, 2)), KMeansSpec(n_groups=2, seed=1))


def test_no_covariate_columns():
    with pytest.raises(DomainError, match="at least one covariate"):
        fit_kmeans(np.zeros((5, 0)), KMeansSpec(n_groups=2, seed=1))


def test_gate_passes_balanced_blobs():
    x = blobs(100, [(-6.0, 0.0), (6.0, 0.0)], seed=14)
    a = Stream(15).bernoulli(0.5, 200).astype(float)
    d = Dataset(y=np.zeros(200), a=a, x=x)
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=16))
    g = gate_grouping(fc, d, KMeansSpec(n_groups=2, seed=16, min_group_size=25))
    assert g.n_groups == 2
    assert g.counts().min() >= 25


def test_gate_group_too_small():
    x = np.vstack([blobs(50, [(-6.0, 0.0)], seed=17), blobs(3, [(6.0, 0.0)], seed=18)])
    a = np.tile([0.0, 1.0], 27)[:53]
    d = Dataset(y=np.zeros(53), a=a, x=x)
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=19))
    with pytest.raises(GroupTooSmall) as err:
        gate_grouping(fc, d, KMeansSpec(n_groups=2, seed=19, min_group_size=25))
    assert err.value.size == 3


def test_min_size_default_from_power_rule():
    spec = KMeansSpec(n_groups=2, seed=0)
    # z_tilde = 0.5 at 5% level and 80% power
    assert spec.resolved_min_size() == 32
    assert KMeansSpec(n_groups=2, seed=0, min_group_size=3).resolved_min_size() == 3
    # an infinite z_tilde would resolve to 0 and switch the size gate off
    for z_tilde in (float("inf"), 1e-300):
        with pytest.raises(DomainError, match="z_tilde"):
            KMeansSpec(n_groups=2, z_tilde=z_tilde).resolved_min_size()


def test_standardization_stored():
    x = blobs(50, [(0.0, 0.0), (100.0, 0.0)], seed=22)
    x[:, 1] *= 1000.0
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=23))
    assert isinstance(fc, FittedClusterer)
    # scaling is undone consistently: assign works on raw coordinates
    labels = fc.assign(x)
    assert set(np.unique(labels)) == {1, 2}


def test_gate_cluster_without_rows_is_degenerate():
    # The third centroid lies far from every row, so no row is assigned to
    # it; that is a degenerate clustering, reported ahead of the size gate.
    x = blobs(40, [(-1.0,), (1.0,)], seed=24, sd=0.2)
    fc = FittedClusterer(centroids=np.array([[-1.0], [1.0], [100.0]]),
                         col_mean=np.zeros(1), col_scale=np.ones(1),
                         inertia=0.0, inertia_path=(0.0,))
    d = Dataset(y=np.zeros(80), a=np.tile([0.0, 1.0], 40), x=x)
    with pytest.raises(ClusteringDegenerate):
        gate_grouping(fc, d, KMeansSpec(n_groups=3, seed=0, min_group_size=1000))


# Reference k-means kernels: the (n, k, p) broadcast that _sq_dist replaced.
# They take the arguments of _plusplus_init and _lloyd, and the Lloyd ones
# ignore the transpose zt.

def _t(z):
    return np.ascontiguousarray(z.T)


def _broadcast_d2(z, centroids):
    return ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _broadcast_init(zt, k, stream):
    z = zt.T
    n = z.shape[0]
    centroids = np.empty((k, z.shape[1]))
    first = int(stream.integers(1, n)[0])
    centroids[0] = z[first]
    d2 = ((z - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        pick = stream.weighted_index(d2) if d2.sum() > 0 else int(stream.integers(1, n)[0])
        centroids[j] = z[pick]
        d2 = np.minimum(d2, ((z - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _broadcast_lloyd(z, zt, centroids, max_iter, tol=1e-12, path=()):
    # path continues a run that stopped at a looser tol, as _lloyd's does
    n, k = z.shape[0], centroids.shape[0]
    labels = np.argmin(_broadcast_d2(z, centroids), axis=1)
    path = list(path)
    prev = path[-1] if path else np.inf
    if len(path) > 1 and path[-1] >= path[-2] - tol * path[-2]:
        return centroids, labels, path, True
    for _ in range(len(path), max_iter):
        d2 = _broadcast_d2(z, centroids)
        labels = np.argmin(d2, axis=1)
        dist_own = d2[np.arange(n), labels]
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = z[members].mean(axis=0)
            else:
                far = int(np.argmax(dist_own))
                centroids[j] = z[far]
                labels[far] = j
                dist_own[far] = -1.0
        d2 = _broadcast_d2(z, centroids)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        path.append(inertia)
        if inertia >= prev - tol * prev:
            return centroids, labels, path, True
        prev = inertia
    return centroids, labels, path, False


def _overlapping_blobs(p, seed):
    centers = [np.full(p, -1.0), np.full(p, 1.0), np.r_[2.0, np.zeros(p - 1)]]
    return blobs(300, centers, seed=seed, sd=1.5)


def _fit_both(monkeypatch, x, spec):
    fast = fit_kmeans(x, spec)
    with monkeypatch.context() as m:
        m.setattr(clustering, "_plusplus_init", _broadcast_init)
        m.setattr(clustering, "_lloyd", _broadcast_lloyd)
        ref = fit_kmeans(x, spec)
    z = (x - ref.col_mean) / ref.col_scale
    ref_labels = np.argmin(_broadcast_d2(z, ref.centroids), axis=1) + 1
    return fast, ref, ref_labels


@pytest.mark.parametrize("p", [1, 2, 5, 7])
def test_kmeans_bit_identical_to_broadcast(monkeypatch, p):
    x = _overlapping_blobs(p, seed=30 + p)
    fast, ref, ref_labels = _fit_both(monkeypatch, x, KMeansSpec(n_groups=3, seed=p))
    assert len(ref.inertia_path) > 2  # several Lloyd iterations were compared
    assert np.array_equal(fast.centroids, ref.centroids)
    assert fast.inertia_path == ref.inertia_path
    assert fast.inertia == ref.inertia
    assert np.array_equal(fast.assign(x), ref_labels)


def test_kmeans_wide_design_within_rounding(monkeypatch):
    # From 8 features numpy's broadcast sum is pairwise, so distances may
    # differ in the last ulp; the clustering itself must not move.
    x = _overlapping_blobs(12, seed=40)
    fast, ref, ref_labels = _fit_both(monkeypatch, x, KMeansSpec(n_groups=3, seed=41))
    assert np.array_equal(fast.centroids, ref.centroids)
    assert np.array_equal(fast.assign(x), ref_labels)
    assert fast.inertia == pytest.approx(ref.inertia, rel=1e-12)


def test_lloyd_reseeds_an_empty_cluster_like_broadcast():
    # Two coincident starting centroids: ties go to the lower label, so the
    # second one owns no rows and is re-seeded in the first iteration.
    z = _overlapping_blobs(3, seed=42)
    init = np.vstack([z[0], z[0], z[1]])
    fast = clustering._lloyd(z, _t(z), init.copy(), max_iter=100)
    ref = _broadcast_lloyd(z, _t(z), init.copy(), max_iter=100)
    assert np.array_equal(fast[0], ref[0])
    assert np.array_equal(fast[1], ref[1])
    assert fast[2:] == ref[2:]


def test_lloyd_one_distance_pass_per_iteration(monkeypatch):
    calls = []
    counted = clustering._sq_dist

    def counting(z, centroids, *buffers):
        calls.append(centroids.shape[0])
        return counted(z, centroids, *buffers)

    monkeypatch.setattr(clustering, "_sq_dist", counting)
    x = _overlapping_blobs(5, seed=43)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    zt = _t(z)
    root = Stream(44).child("kmeans")
    for r in range(5):
        init = clustering._plusplus_init(zt, 3, root.child(r))
        calls.clear()
        _, _, path, _ = clustering._lloyd(z, zt, init, max_iter=100)
        assert len(path) > 1
        assert len(calls) == len(path) + 1


@pytest.mark.parametrize("name, value", [
    ("n_groups", 1), ("n_groups", 0), ("max_iter", 0), ("max_iter", -3),
    ("n_restarts", 0), ("n_restarts", -1), ("min_group_size", 0),
])
def test_kmeans_spec_validated_at_construction(name, value):
    with pytest.raises(DomainError) as err:
        KMeansSpec(**{"n_groups": 2, name: value})
    assert isinstance(err.value, SslsError) and isinstance(err.value, ValueError)
    assert str(err.value) == f"{name} must be >= {2 if name == 'n_groups' else 1}, got {value}"
    KMeansSpec(n_groups=2, max_iter=1, n_restarts=1, min_group_size=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_kmeans_names_a_non_finite_covariate(bad):
    x = blobs(40, [(-3.0, 0.0), (3.0, 0.0)], seed=50)
    x[17, 1] = bad
    with pytest.raises(NonFinite) as err:
        fit_kmeans(x, KMeansSpec(n_groups=2, seed=51))
    assert (err.value.row, err.value.col) == (17, 1)
    with pytest.raises(NonFinite) as err:
        fit_kmeans(x[:, 1], KMeansSpec(n_groups=2, seed=51, standardize=False))
    assert (err.value.row, err.value.col) == (17, 0)


def test_assign_and_gate_name_a_nan_covariate():
    # every distance of a NaN row is NaN, which the nearest-centroid rule
    # would settle as label 1 without a word
    x = blobs(100, [(-6.0, 0.0), (6.0, 0.0)], seed=14)
    a = Stream(15).bernoulli(0.5, 200).astype(float)
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=16))
    x[150, 0] = np.nan  # a row of the second blob
    with pytest.raises(NonFinite) as err:
        fc.assign(x)
    assert (err.value.row, err.value.col) == (150, 0)
    d = Dataset(y=np.zeros(200), a=a, x=x)
    with pytest.raises(NonFinite) as err:
        gate_grouping(fc, d, KMeansSpec(n_groups=2, seed=16, min_group_size=25))
    assert (err.value.row, err.value.col) == (150, 0)


# Ties: squared distances between small integers are exact, so lattice rows
# lie exactly as far from two or three of these centroids; the first and
# last coincide, so the last owns no row until it is re-seeded.

def _lattice():
    g = np.arange(-2.0, 3.0)
    return np.array([(a, b) for a in g for b in g] * 3)


_TIED_CENTROIDS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def _argmin_oracle(d2_kn):
    labels = np.argmin(d2_kn, axis=0)
    return labels, d2_kn[labels, np.arange(d2_kn.shape[1])]


def test_lloyd_ties_match_argmin(monkeypatch):
    seen = []
    nearest = clustering._nearest

    def recording(d2):
        labels, dist = nearest(d2)
        seen.append((d2.copy(), labels.copy(), dist.copy()))
        return labels, dist

    monkeypatch.setattr(clustering, "_nearest", recording)
    z = _lattice()
    centroids, labels, path, _ = clustering._lloyd(z, _t(z), _TIED_CENTROIDS.copy(),
                                                   max_iter=100)
    first = seen[0][0]
    n_at_min = (first == first.min(axis=0)).sum(axis=0)
    assert (n_at_min == 2).any() and (n_at_min >= 3).any()
    assert len(seen) == len(path) + 1
    for d2, got_labels, got_dist in seen:
        want_labels, want_dist = _argmin_oracle(d2)
        assert np.array_equal(got_labels, want_labels)
        assert np.array_equal(got_dist, want_dist)
    assert np.array_equal(labels, seen[-1][1])
    ref = _broadcast_lloyd(z, _t(z), _TIED_CENTROIDS.copy(), max_iter=100)
    assert np.array_equal(centroids, ref[0])
    assert np.array_equal(labels, ref[1])
    assert path == ref[2]


def test_assign_ties_match_argmin():
    z = _lattice()
    fc = FittedClusterer(centroids=_TIED_CENTROIDS, col_mean=np.zeros(2),
                         col_scale=np.ones(2), inertia=0.0, inertia_path=(0.0,))
    labels = fc.assign(z)
    assert np.array_equal(labels, np.argmin(_broadcast_d2(z, _TIED_CENTROIDS), axis=1) + 1)
    assert not (labels == 4).any()  # coincident with centroid 1, which wins


# The column-wise kernel that the (k, n) running minimum and the bincount
# centroid update replaced: (n, k) distances, argmin labels, and a mean over
# each cluster's rows.

def _nk_sq_dist(z, centroids):
    zt = np.ascontiguousarray(z.T)
    d2 = np.zeros((centroids.shape[0], z.shape[0]))
    for f in range(z.shape[1]):
        d2 += (zt[f] - centroids[:, f, None]) ** 2
    return d2.T


def _mask_mean_lloyd(z, zt, centroids, max_iter):
    n, k = z.shape[0], centroids.shape[0]
    rows = np.arange(n)
    d2 = _nk_sq_dist(z, centroids)
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
                far = int(np.argmax(dist_own))
                centroids[j] = z[far]
                labels[far] = j
                dist_own[far] = -1.0
        d2 = _nk_sq_dist(z, centroids)
        labels = np.argmin(d2, axis=1)
        dist_own = d2[rows, labels]
        inertia = float(dist_own.sum())
        path.append(inertia)
        if inertia >= prev - 1e-12 * max(prev, 1.0):
            return centroids, labels, path, True
        prev = inertia
    return centroids, labels, path, False


def test_lloyd_bit_identical_on_a_discover_shaped_design():
    # Two continuous and three binary covariates, standardized as fit_kmeans
    # does, four clusters: the shape that discover clusters on its third.
    s = Stream(60)
    n = 30_000
    x = np.column_stack([s.normal(n), s.normal(n)]
                        + [s.bernoulli(0.5, n).astype(float) for _ in range(3)])
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    zt = _t(z)
    root = Stream(61).child("kmeans")
    iters = 0
    for r in range(3):
        init = clustering._plusplus_init(zt, 4, root.child(r))
        ref = _broadcast_lloyd(z, zt, init.copy(), max_iter=100)
        for lloyd in (clustering._lloyd, _mask_mean_lloyd):
            got = lloyd(z, zt, init.copy(), max_iter=100)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])
            assert got[2:] == ref[2:]
        iters += len(ref[2])
    assert iters > 10  # several Lloyd iterations were compared


def test_fit_kmeans_keeps_the_lowest_inertia_restart():
    x = _overlapping_blobs(2, seed=71)
    spec = KMeansSpec(n_groups=3, seed=72, n_restarts=6)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    zt = _t(z)
    root = Stream(72).child("kmeans")
    paths = [clustering._lloyd(z, zt, clustering._plusplus_init(zt, 3, root.child(r)), 100)[2]
             for r in range(6)]
    best = min(range(6), key=lambda r: (paths[r][-1], r))
    assert best > 0  # a later restart improves on the first
    fc = fit_kmeans(x, spec)
    assert fc.inertia_path == tuple(paths[best])
    assert fc.restart == best


# The restarts run on a thread pool sized by the usable CPUs. The result must
# not depend on that size: the fit is compared with the serial broadcast
# oracle, and the pool is recorded to show how many workers it was given.

def _discover_shaped(n, seed):
    s = Stream(seed)
    x = np.column_stack([s.normal(n), s.normal(n)]
                        + [s.bernoulli(0.5, n).astype(float) for _ in range(3)])
    return x, s.bernoulli(0.5, n).astype(float)


def _recording_pool(monkeypatch):
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_pool_size_does_not_change_the_fit(monkeypatch, cpus):
    x, a = _discover_shaped(3_000, seed=80)
    spec = KMeansSpec(n_groups=4, seed=81, min_group_size=10)
    fit_x, est = x[:1_000], Dataset(y=np.zeros(2_000), a=a[1_000:], x=x[1_000:])
    with monkeypatch.context() as m:
        m.setattr(clustering, "_plusplus_init", _broadcast_init)
        m.setattr(clustering, "_lloyd", _broadcast_lloyd)
        m.setattr(clustering, "usable_cpus", lambda: 1)
        ref = fit_kmeans(fit_x, spec)
    z_est = (est.x - ref.col_mean) / ref.col_scale
    ref_labels = np.argmin(_broadcast_d2(z_est, ref.centroids), axis=1) + 1

    sizes = _recording_pool(monkeypatch)
    monkeypatch.setattr(clustering, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(clustering, "_MIN_POOLED_ROWS", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        fc = fit_kmeans(fit_x, spec)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [cpus]
    assert len(ref.inertia_path) > 2  # several Lloyd iterations were compared
    assert np.array_equal(fc.centroids, ref.centroids)
    assert fc.inertia == ref.inertia
    assert fc.inertia_path == ref.inertia_path
    assert (fc.restart, fc.restart_converged) == (ref.restart, ref.restart_converged)
    assert np.array_equal(gate_grouping(fc, est, spec).labels, ref_labels)


def test_small_fit_uses_one_worker(monkeypatch):
    sizes = _recording_pool(monkeypatch)
    monkeypatch.setattr(clustering, "usable_cpus", lambda: 4)
    x, _ = _discover_shaped(clustering._MIN_POOLED_ROWS - 1, seed=82)
    fit_kmeans(x, KMeansSpec(n_groups=4, seed=83, max_iter=2))
    fit_kmeans(x[:50], KMeansSpec(n_groups=4, seed=83))
    assert sizes == [1, 1]


def test_pool_never_exceeds_the_restarts(monkeypatch):
    sizes = _recording_pool(monkeypatch)
    monkeypatch.setattr(clustering, "usable_cpus", lambda: 4)
    monkeypatch.setattr(clustering, "_MIN_POOLED_ROWS", 0)
    x, _ = _discover_shaped(200, seed=84)
    fit_kmeans(x, KMeansSpec(n_groups=2, seed=85, n_restarts=3))
    assert sizes == [3]


def test_a_failing_restart_reaches_the_caller_and_ends_the_pool(monkeypatch):
    class Boom(RuntimeError):
        pass

    x, _ = _discover_shaped(600, seed=86)
    spec = KMeansSpec(n_groups=3, seed=87)
    zt = _t((x - x.mean(axis=0)) / x.std(axis=0))
    third = clustering._plusplus_init(zt, 3, Stream(87).child("kmeans").child(3))
    lloyd = clustering._lloyd

    def failing(z, zt, centroids, max_iter, *rest):
        if np.array_equal(centroids, third):
            raise Boom("restart 3")
        return lloyd(z, zt, centroids, max_iter, *rest)

    monkeypatch.setattr(clustering, "_lloyd", failing)
    monkeypatch.setattr(clustering, "usable_cpus", lambda: 2)
    monkeypatch.setattr(clustering, "_MIN_POOLED_ROWS", 0)
    before = threading.active_count()
    with pytest.raises(Boom, match="restart 3"):
        fit_kmeans(x, spec)
    assert threading.active_count() == before


def test_restarts_that_hit_max_iter_are_flagged():
    x = _overlapping_blobs(2, seed=88)
    spec = KMeansSpec(n_groups=3, seed=89, n_restarts=4)
    free = fit_kmeans(x, spec)
    assert free.restart_converged == (True,) * 4
    capped = fit_kmeans(x, KMeansSpec(n_groups=3, seed=89, n_restarts=4, max_iter=2))
    assert capped.restart_converged == (False,) * 4
    assert len(capped.inertia_path) == 2


# Screening: every restart stops at the loose _SCREEN_TOL and only the
# leaders go on to _TOL. The kept restart must be the one that finishing
# every restart keeps, which a screen at _TOL itself gives.

def _lloyd_calls(monkeypatch):
    calls = []
    lloyd = clustering._lloyd

    def recording(z, zt, centroids, max_iter, tol=clustering._TOL, path=()):
        result = lloyd(z, zt, centroids, max_iter, tol, path)
        calls.append((tol, len(result[2]) - len(path)))
        return result

    monkeypatch.setattr(clustering, "_lloyd", recording)
    return calls


def test_a_continued_lloyd_run_follows_the_strict_run():
    x, _ = _discover_shaped(3_000, seed=46)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    zt = _t(z)
    root = Stream(47).child("kmeans")
    cut = 0
    for r in range(6):
        init = clustering._plusplus_init(zt, 4, root.child(r))
        strict = clustering._lloyd(z, zt, init.copy(), 100)
        centroids, _, path, _ = clustering._lloyd(z, zt, init.copy(), 100, 1e-2)
        cut += len(path) < len(strict[2])
        got = clustering._lloyd(z, zt, centroids, 100, clustering._TOL, path)
        assert np.array_equal(got[0], strict[0])
        assert np.array_equal(got[1], strict[1])
        assert got[2:] == strict[2:]
    assert cut > 0


# At _SCREEN_TOL the screen cuts runs short on designs of about 10 000 rows
# and more; below that, runs seldom creep and the two fits are the same work.
@pytest.mark.parametrize("design", ["discover", "blobs"])
def test_screened_fit_keeps_the_restart_of_the_strict_fit(monkeypatch, design):
    calls = _lloyd_calls(monkeypatch)
    iterations = {}
    three = [(-1.0, -1.0), (1.0, 1.0), (2.0, 0.0)]
    for seed in range(20):
        if design == "discover":
            x, _ = _discover_shaped(10_000, seed=100 + seed)
            spec = KMeansSpec(n_groups=4, seed=seed)
        else:  # five clusters fitted to three overlapping blobs
            x, spec = blobs(1_000, three, seed=200 + seed, sd=1.5), KMeansSpec(5, seed=seed)
        fits = {}
        for screen in (clustering._SCREEN_TOL, clustering._TOL):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(clustering, "_SCREEN_TOL", screen)
                fits[screen] = fit_kmeans(x, spec)
            iterations[screen] = iterations.get(screen, 0) + sum(n for _, n in calls)
        fast, strict = fits.values()
        assert fast.restart == strict.restart, seed
        assert fast.inertia_path == strict.inertia_path, seed
        assert np.array_equal(fast.centroids, strict.centroids), seed
        assert np.array_equal(fast.assign(x), strict.assign(x)), seed
    assert iterations[clustering._SCREEN_TOL] < iterations[clustering._TOL]


def test_only_leaders_are_finished_and_the_flags_say_which_rule_stopped():
    x, _ = _discover_shaped(2_000, seed=101)
    spec = KMeansSpec(n_groups=4, seed=1)
    fc = fit_kmeans(x, spec)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    zt = _t(z)
    root = Stream(1).child("kmeans")
    screened = [clustering._lloyd(z, zt, clustering._plusplus_init(zt, 4, root.child(r)),
                                  100, clustering._SCREEN_TOL) for r in range(10)]
    lead = min(run[2][-1] for run in screened)
    leaders = [r for r, run in enumerate(screened)
               if run[2][-1] <= lead * (1 + clustering._LEAD_MARGIN)]
    assert len(leaders) < 10
    assert fc.restart in leaders
    for r, run in enumerate(screened):
        if r not in leaders:
            assert fc.restart_converged[r] == run[3]
    capped = fit_kmeans(x, KMeansSpec(n_groups=4, seed=1, max_iter=3))
    assert capped.restart_converged == (False,) * 10  # max_iter counts both passes
    assert len(capped.inertia_path) == 3


def test_fit_does_not_depend_on_the_scale_of_the_design(monkeypatch):
    # Scaling by a power of two scales every distance and inertia exactly,
    # so relative stop rules stop every restart at the same iteration.
    calls = _lloyd_calls(monkeypatch)
    x = _overlapping_blobs(2, seed=90)
    fits, counts = [], []
    for scale in (2.0 ** -20, 1.0, 2.0 ** 20):
        calls.clear()
        fits.append(fit_kmeans(x * scale, KMeansSpec(3, seed=5, standardize=False)))
        counts.append(list(calls))
    small, one, large = fits
    assert small.restart == one.restart == large.restart
    assert counts[0] == counts[1] == counts[2]
    assert small.restart_converged == one.restart_converged == large.restart_converged
    for fc, scale in ((small, 2.0 ** -20), (large, 2.0 ** 20)):
        assert [v / scale ** 2 for v in fc.inertia_path] == list(one.inertia_path)
        assert np.array_equal(fc.centroids / scale, one.centroids)
        assert np.array_equal(fc.assign(x * scale), one.assign(x))


@pytest.mark.parametrize("p", [1, 3, 7])
def test_sq_dist_into_buffers_bit_identical_to_broadcast(p):
    z = _overlapping_blobs(p, seed=45)
    centroids = z[:4].copy()
    want = _broadcast_d2(z, centroids).T
    buffers = (np.full((4, len(z)), np.nan), np.full((4, len(z)), np.nan))
    assert np.array_equal(clustering._sq_dist(_t(z), centroids, buffers), want)
    assert np.array_equal(clustering._sq_dist(_t(z), centroids), want)
