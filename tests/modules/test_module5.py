"""Tests for Module 5 — distributed k-means."""

import numpy as np
import pytest

from repro import smpi
from repro.cluster import ClusterSpec, Placement
from repro.data import gaussian_mixture
from repro.errors import ValidationError
from repro.modules.module5_kmeans import (
    assign_points,
    cluster_sums,
    communication_volume_per_iteration,
    initial_centroids,
    kmeans_distributed,
    kmeans_reference,
    update_centroids,
)


def test_assign_points_nearest():
    pts = np.array([[0.0, 0.0], [10.0, 10.0], [0.2, 0.1]])
    cents = np.array([[0.0, 0.0], [10.0, 10.0]])
    assert assign_points(pts, cents).tolist() == [0, 1, 0]


def test_cluster_sums():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    labels = np.array([0, 1, 0])
    sums, counts = cluster_sums(pts, labels, 3)
    assert sums[0].tolist() == [6.0, 8.0]
    assert counts.tolist() == [2.0, 1.0, 0.0]


def test_update_centroids_empty_cluster_keeps_position():
    sums = np.array([[2.0, 2.0], [0.0, 0.0]])
    counts = np.array([2.0, 0.0])
    prev = np.array([[9.0, 9.0], [5.0, 5.0]])
    out = update_centroids(sums, counts, prev)
    assert out[0].tolist() == [1.0, 1.0]
    assert out[1].tolist() == [5.0, 5.0]


def test_initial_centroids_deterministic_and_distinct():
    pts, _, _ = gaussian_mixture(100, 3, seed=0)
    a = initial_centroids(pts, 3, seed=5)
    b = initial_centroids(pts, 3, seed=5)
    assert np.array_equal(a, b)
    assert len(np.unique(a, axis=0)) == 3


def test_initial_centroids_k_too_large():
    with pytest.raises(ValidationError):
        initial_centroids(np.zeros((3, 2)) + np.arange(3)[:, None], 5)


def test_reference_converges_and_clusters_well():
    pts, labels, centers = gaussian_mixture(600, 3, spread=0.01, seed=1)
    cents, got, iters, inertia = kmeans_reference(pts, 3, seed=1)
    assert iters < 50
    # Tight, well-separated mixture: inertia per point is tiny.
    assert inertia / len(pts) < 0.01


@pytest.mark.parametrize("method", ["weighted", "explicit"])
@pytest.mark.parametrize("p", [1, 3, 4])
def test_distributed_matches_reference(method, p):
    """Both communication options compute the same clustering as the
    sequential reference (same init, same update rule)."""
    n, k, seed = 900, 4, 7
    pts, _, _ = gaussian_mixture(n, k, seed=seed)
    ref_c, _, ref_iters, ref_inertia = kmeans_reference(pts, k, seed=seed)

    out = smpi.run(p, kmeans_distributed, pts, k=k, method=method, seed=seed)
    r = out[0]
    assert r.iterations == ref_iters
    assert np.allclose(r.centroids, ref_c, atol=1e-8)
    assert r.inertia == pytest.approx(ref_inertia, rel=1e-8)
    # Every rank holds identical centroids.
    for other in out[1:]:
        assert np.allclose(other.centroids, r.centroids)


@pytest.mark.parametrize("method", ["weighted", "explicit"])
def test_every_rank_takes_the_width_of_the_given_points(method):
    """Points wider than the ``dims`` default: every rank, not only the
    root that reads the points, iterates over their width."""
    k, seed = 4, 3
    pts = np.random.default_rng(seed).normal(size=(600, 3))
    ref_c, _, ref_iters, _ = kmeans_reference(pts, k, seed=seed)
    out = smpi.run(2, kmeans_distributed, pts, k=k, method=method, seed=seed)
    for r in out:
        assert r.iterations == ref_iters
        assert np.allclose(r.centroids, ref_c, atol=1e-8)


def test_label_partition_sizes():
    out = smpi.run(4, kmeans_distributed, n=103, k=3, seed=0)
    assert sum(len(r.local_labels) for r in out) == 103


def test_methods_agree_with_each_other():
    w = smpi.run(3, kmeans_distributed, n=500, k=5, method="weighted", seed=2)
    e = smpi.run(3, kmeans_distributed, n=500, k=5, method="explicit", seed=2)
    assert np.allclose(w[0].centroids, e[0].centroids, atol=1e-8)
    assert w[0].inertia == pytest.approx(e[0].inertia, rel=1e-8)


def test_invalid_method_rejected():
    with pytest.raises(ValidationError):
        smpi.run(2, kmeans_distributed, n=50, k=2, method="gossip")


def test_weighted_much_cheaper_communication():
    """Option 2's point: k(d+1) numbers instead of N/p labels."""
    vol_w = communication_volume_per_iteration(100_000, 8, 4, 2, "weighted")
    vol_e = communication_volume_per_iteration(100_000, 8, 4, 2, "explicit")
    assert vol_e > 100 * vol_w


def test_weighted_faster_in_virtual_time():
    spec = ClusterSpec.monsoon_like(num_nodes=1)
    kw = dict(n=20_000, k=4, seed=1, cluster=spec,
              placement=Placement.block(spec, 8))
    t_w = smpi.launch(8, kmeans_distributed, method="weighted", **kw).elapsed
    t_e = smpi.launch(8, kmeans_distributed, method="explicit", **kw).elapsed
    assert t_w < t_e


def test_comm_fraction_decreases_with_k():
    """The module's k-sweep lesson: low k => communication dominated,
    high k => computation dominated."""
    spec = ClusterSpec.monsoon_like(num_nodes=1)

    def comm_frac(k):
        out = smpi.launch(
            8, kmeans_distributed, n=8_000, k=k, method="weighted", seed=3,
            max_iter=5, tol=-1.0,  # fixed iteration count for fairness
            cluster=spec, placement=Placement.block(spec, 8),
        )
        return out.results[0].comm_fraction

    low_k, high_k = comm_frac(2), comm_frac(128)
    assert low_k > 0.4
    assert high_k < 0.2
    assert low_k > 3 * high_k


def test_multi_node_not_advantageous_at_low_k():
    """The paper: 'using multiple compute nodes is not advantageous when
    k is low' — inter-node latency dominates the tiny allreduce."""
    spec = ClusterSpec.monsoon_like(num_nodes=2)
    kw = dict(n=8_000, k=2, method="weighted", seed=4, max_iter=5, tol=-1.0,
              cluster=spec)
    one = smpi.launch(8, kmeans_distributed,
                      placement=Placement.spread(spec, 8, nodes=1), **kw).elapsed
    two = smpi.launch(8, kmeans_distributed,
                      placement=Placement.spread(spec, 8, nodes=2), **kw).elapsed
    assert two >= one


def test_convergence_flag():
    out = smpi.run(2, kmeans_distributed, n=300, k=3, seed=0, max_iter=100)
    assert out[0].converged
    out2 = smpi.run(2, kmeans_distributed, n=300, k=3, seed=0, max_iter=1)
    assert not out2[0].converged


def test_phase_times_recorded():
    out = smpi.run(2, kmeans_distributed, n=500, k=4, seed=0)
    r = out[0]
    assert r.compute_time > 0
    assert r.comm_time > 0
    assert 0 < r.comm_fraction < 1
