"""The vectorized module kernels against short independent references.

Each reference below is written from the kernel's definition — plain
norms, a full squared-distance ``argmin``, masked sums, a histogram walk —
and shares no code or formula trick with ``repro.harness.kernels``.
"""

import numpy as np
import pytest

from repro.harness import kernels


def _ref_pairwise(a, b):
    return np.array([[np.linalg.norm(x - y) for y in b] for x in a])


def _ref_assign(points, centroids):
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _ref_update(points, labels, k):
    sums = np.array([points[labels == j].sum(axis=0) for j in range(k)])
    counts = np.array([float((labels == j).sum()) for j in range(k)])
    return sums, counts


def _ref_centroids(sums, counts, previous):
    return np.array([
        sums[j] / counts[j] if counts[j] > 0 else previous[j]
        for j in range(len(counts))
    ])


def _ref_histogram_cuts(sample, p, bins):
    """Equal-mass cuts by walking a uniform-bin histogram (the rightmost
    bin closed on both sides) and interpolating linearly within a bin,
    clamped at the ends."""
    values = [float(v) for v in sample]
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins if hi > lo else 1.0
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / width), bins - 1) if hi > lo else 0
        counts[idx] += 1
    edges = [lo + i * width for i in range(bins + 1)] if hi > lo else [lo, lo + 1.0]
    cumulative = [0.0]
    for c in counts:
        cumulative.append(cumulative[-1] + c)
    n = len(values)
    cuts = []
    for j in range(1, p):
        target = j * n / p
        if target <= cumulative[0]:
            cuts.append(edges[0])
            continue
        if target >= cumulative[-1]:
            cuts.append(edges[-1])
            continue
        for i in range(1, len(cumulative)):
            if target <= cumulative[i]:
                lo_c, hi_c = cumulative[i - 1], cumulative[i]
                frac = 0.0 if hi_c == lo_c else (target - lo_c) / (hi_c - lo_c)
                cuts.append(edges[i - 1] + frac * (edges[i] - edges[i - 1]))
                break
    return np.array(cuts)


def test_pairwise_block_matches_reference():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    np.testing.assert_allclose(
        kernels.pairwise_block(a, b), _ref_pairwise(a, b), rtol=1e-10, atol=1e-12
    )
    # The diagonal of a self-block clips to exactly zero, never NaN.
    self_block = kernels.pairwise_block(a, a)
    assert not np.isnan(self_block).any()
    np.testing.assert_allclose(np.diag(self_block), 0.0, atol=1e-7)


def test_kmeans_assign_matches_reference():
    rng = np.random.default_rng(3)
    pts, cen = rng.normal(size=(200, 3)), rng.normal(size=(5, 3))
    np.testing.assert_array_equal(
        kernels.kmeans_assign(pts, cen), _ref_assign(pts, cen)
    )


def test_kmeans_update_and_centroid_step_match_reference():
    rng = np.random.default_rng(4)
    k = 5
    pts = rng.normal(size=(60, 3))
    # Cluster 3 gets no points: it must keep its previous centroid.
    labels = rng.choice([0, 1, 2, 4], size=len(pts))
    previous = rng.normal(size=(k, 3))
    sums, counts = kernels.kmeans_update(pts, labels, k)
    ref_sums, ref_counts = _ref_update(pts, labels, k)
    np.testing.assert_allclose(sums, ref_sums, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(counts, ref_counts)
    assert counts[3] == 0.0
    new = kernels.centroid_step(sums, counts, previous)
    np.testing.assert_allclose(
        new, _ref_centroids(ref_sums, ref_counts, previous), rtol=1e-12
    )
    np.testing.assert_array_equal(new[3], previous[3])


@pytest.mark.parametrize("p, bins", [(8, 64), (4, 7), (2, 1)])
def test_histogram_cuts_matches_reference(p, bins):
    rng = np.random.default_rng(11)
    sample = rng.exponential(size=500)
    np.testing.assert_allclose(
        kernels.histogram_cuts(sample, p=p, bins=bins),
        _ref_histogram_cuts(sample, p, bins),
        rtol=1e-9, atol=1e-12,
    )


def test_modules_route_through_kernels():
    """The module entry points and the kernels produce identical numbers
    (the delegation is real, and cost charging stayed in the modules)."""
    from repro.modules.module2_distance import pairwise_distances
    from repro.modules.module3_sort import histogram_splitters
    from repro.modules.module5_kmeans import assign_points

    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 4))
    np.testing.assert_array_equal(
        pairwise_distances(a), kernels.pairwise_block(a, a)
    )
    cen = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(
        assign_points(a, cen), kernels.kmeans_assign(a, cen)
    )
    sample = rng.exponential(size=200)
    np.testing.assert_array_equal(
        histogram_splitters(sample, p=4, bins=32),
        kernels.histogram_cuts(sample, p=4, bins=32),
    )


@pytest.mark.parametrize("nprocs", [1, 4])
def test_distributed_kmeans_matches_reference(nprocs):
    """End-to-end: distributed k-means reaches the centroids of a serial
    Lloyd loop built from the reference kernels above."""
    from repro import smpi
    from repro.data import gaussian_mixture
    from repro.modules.module5_kmeans import initial_centroids, kmeans_distributed

    n, k, max_iter, seed = 120, 3, 5, 2
    out = smpi.run(
        nprocs, kmeans_distributed, n=n, k=k, max_iter=max_iter, seed=seed
    )[0]
    points, _, _ = gaussian_mixture(n, k, 2, seed=seed)
    centroids = initial_centroids(points, k, seed=seed)
    iterations = 0
    for _ in range(max_iter):
        labels = _ref_assign(points, centroids)
        new = _ref_centroids(*_ref_update(points, labels, k), centroids)
        iterations += 1
        shift = float(np.abs(new - centroids).max())
        centroids = new
        if shift <= 1e-12:
            break
    labels = _ref_assign(points, centroids)
    inertia = float(((points - centroids[labels]) ** 2).sum())
    np.testing.assert_allclose(out.centroids, centroids, rtol=1e-9)
    assert out.iterations == iterations
    assert out.inertia == pytest.approx(inertia, rel=1e-9)
