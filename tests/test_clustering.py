"""k-means fitting, canonical labels, quality gates."""

import numpy as np
import pytest

from ssls import clustering
from ssls.clustering import FittedClusterer, KMeansSpec, fit_kmeans, gate_grouping
from ssls.data import Dataset
from ssls.errors import (ClusteringDegenerate, DomainError, GroupTooSmall, NonFinite,
                         OneArmOnly, SslsError, TooFewSamples)
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


def test_gate_one_arm():
    x = blobs(40, [(-6.0, 0.0), (6.0, 0.0)], seed=20)
    a = np.concatenate([np.tile([0.0, 1.0], 20), np.ones(40)])
    d = Dataset(y=np.zeros(80), a=a, x=x)
    fc = fit_kmeans(x, KMeansSpec(n_groups=2, seed=21))
    with pytest.raises(OneArmOnly):
        gate_grouping(fc, d, KMeansSpec(n_groups=2, seed=21, min_group_size=5))


def test_min_size_default_from_power_rule():
    spec = KMeansSpec(n_groups=2, seed=0)
    # z_tilde = 0.5 at 5% level and 80% power
    assert spec.resolved_min_size() == 32
    assert KMeansSpec(n_groups=2, seed=0, min_group_size=3).resolved_min_size() == 3


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

def _broadcast_d2(z, centroids):
    return ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _broadcast_init(z, k, stream):
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


def _broadcast_lloyd(z, centroids, max_iter):
    n, k = z.shape[0], centroids.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    path = []
    prev = np.inf
    for _ in range(max_iter):
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
        if inertia >= prev - 1e-12 * max(prev, 1.0):
            break
        prev = inertia
    return centroids, labels, path


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
    fast = clustering._lloyd(z, init.copy(), max_iter=100)
    ref = _broadcast_lloyd(z, init.copy(), max_iter=100)
    assert np.array_equal(fast[0], ref[0])
    assert np.array_equal(fast[1], ref[1])
    assert fast[2] == ref[2]


def test_lloyd_one_distance_pass_per_iteration(monkeypatch):
    calls = []
    counted = clustering._sq_dist

    def counting(z, centroids):
        calls.append(centroids.shape[0])
        return counted(z, centroids)

    monkeypatch.setattr(clustering, "_sq_dist", counting)
    x = _overlapping_blobs(5, seed=43)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    root = Stream(44).child("kmeans")
    for r in range(5):
        init = clustering._plusplus_init(z, 3, root.child(r))
        calls.clear()
        _, _, path = clustering._lloyd(z, init, max_iter=100)
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
    centroids, labels, path = clustering._lloyd(z, _TIED_CENTROIDS.copy(), max_iter=100)
    first = seen[0][0]
    n_at_min = (first == first.min(axis=0)).sum(axis=0)
    assert (n_at_min == 2).any() and (n_at_min >= 3).any()
    assert len(seen) == len(path) + 1
    for d2, got_labels, got_dist in seen:
        want_labels, want_dist = _argmin_oracle(d2)
        assert np.array_equal(got_labels, want_labels)
        assert np.array_equal(got_dist, want_dist)
    assert np.array_equal(labels, seen[-1][1])
    ref = _broadcast_lloyd(z, _TIED_CENTROIDS.copy(), max_iter=100)
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


def _mask_mean_lloyd(z, centroids, max_iter):
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
            break
        prev = inertia
    return centroids, labels, path


def test_lloyd_bit_identical_on_a_discover_shaped_design():
    # Two continuous and three binary covariates, standardized as fit_kmeans
    # does, four clusters: the shape that discover clusters on its third.
    s = Stream(60)
    n = 30_000
    x = np.column_stack([s.normal(n), s.normal(n)]
                        + [s.bernoulli(0.5, n).astype(float) for _ in range(3)])
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    root = Stream(61).child("kmeans")
    iters = 0
    for r in range(3):
        init = clustering._plusplus_init(z, 4, root.child(r))
        ref = _broadcast_lloyd(z, init.copy(), max_iter=100)
        for lloyd in (clustering._lloyd, _mask_mean_lloyd):
            got = lloyd(z, init.copy(), max_iter=100)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])
            assert got[2] == ref[2]
        iters += len(ref[2])
    assert iters > 10  # several Lloyd iterations were compared


def test_fit_kmeans_keeps_the_lowest_inertia_restart():
    x = _overlapping_blobs(2, seed=71)
    spec = KMeansSpec(n_groups=3, seed=72, n_restarts=6)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    root = Stream(72).child("kmeans")
    paths = [clustering._lloyd(z, clustering._plusplus_init(z, 3, root.child(r)), 100)[2]
             for r in range(6)]
    best = min(range(6), key=lambda r: (paths[r][-1], r))
    assert best > 0  # a later restart improves on the first
    assert fit_kmeans(x, spec).inertia_path == tuple(paths[best])
