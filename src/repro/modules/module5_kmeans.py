"""Module 5 — k-means Clustering.

Lloyd's algorithm in distributed memory: each rank owns ``N/p`` points;
every iteration assigns local points to the nearest of ``k`` global
centroids (independent compute) and then updates the centroids with
global knowledge (communication).  The module's two communication
options are both implemented:

* ``method="explicit"`` — option 1: every rank ships its full assignment
  vector to the root, which recomputes centroids from the whole dataset
  and broadcasts them.  Communication grows with *N*.
* ``method="weighted"`` — option 2: every rank reduces its per-cluster
  partial sums and counts (the "weighted means"); one
  ``MPI_Allreduce`` of ``k·(d+1)`` numbers replaces the assignment
  shipping.  Communication grows only with *k·d*.

The activity asks how the compute/communication balance moves with
``k``: assignment flops scale with ``k`` while (weighted) communication
barely does, so small ``k`` is communication-dominated and large ``k``
compute-dominated — and multi-node runs only pay off once compute
dominates.  :class:`KMeansResult` carries the per-phase virtual times
that make this visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro import smpi
from repro.data import gaussian_mixture, partition_points
from repro.errors import ValidationError
from repro.harness.kernels import centroid_step, kmeans_assign, kmeans_update
from repro.util.rng import SeedLike, spawn_rng
from repro.util.validation import check_points, check_positive, require

#: flops per (point, centroid, dimension): subtract, square, accumulate.
ASSIGN_FLOPS_PER_ELEMENT = 3.0


@dataclass(frozen=True)
class KMeansResult:
    """Per-rank outcome of a distributed k-means run."""

    centroids: np.ndarray
    local_labels: np.ndarray
    iterations: int
    converged: bool
    inertia: float
    compute_time: float
    comm_time: float
    method: str

    @property
    def comm_fraction(self) -> float:
        total = self.compute_time + self.comm_time
        return self.comm_time / total if total > 0 else 0.0


def initial_centroids(points: np.ndarray, k: int, seed: SeedLike = 0) -> np.ndarray:
    """Deterministically sample ``k`` distinct points as starting centroids."""
    points = check_points("points", points)
    check_positive("k", k)
    require(k <= len(points), f"k={k} exceeds the {len(points)} data points")
    rng = spawn_rng(seed, "kmeans-init")
    idx = rng.choice(len(points), size=k, replace=False)
    return points[idx].copy()


def assign_points(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid label per point.

    Delegates to :func:`repro.harness.kernels.kmeans_assign`.
    """
    return kmeans_assign(points, centroids)


def cluster_sums(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster coordinate sums and counts (the "weighted means")."""
    return kmeans_update(points, labels, k)


def update_centroids(
    sums: np.ndarray, counts: np.ndarray, previous: np.ndarray
) -> np.ndarray:
    """New centroid positions; clusters that lost all points keep their
    previous position (the standard empty-cluster rule)."""
    return centroid_step(sums, counts, previous)


def kmeans_reference(
    points: np.ndarray,
    k: int,
    *,
    max_iter: int = 50,
    tol: float = 1e-12,
    seed: SeedLike = 0,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Sequential Lloyd's algorithm with the same init/update rules as the
    distributed version; returns (centroids, labels, iterations, inertia)."""
    points = check_points("points", points)
    centroids = initial_centroids(points, k, seed=seed)
    iterations = 0
    for _ in range(max_iter):
        labels = assign_points(points, centroids)
        sums, counts = cluster_sums(points, labels, k)
        new_centroids = update_centroids(sums, counts, centroids)
        iterations += 1
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift <= tol:
            break
    labels = assign_points(points, centroids)
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return centroids, labels, iterations, inertia


def kmeans_distributed(
    comm,
    points: Optional[np.ndarray] = None,
    *,
    n: int = 10_000,
    k: int = 8,
    dims: int = 2,
    method: str = "weighted",
    max_iter: int = 50,
    tol: float = 1e-12,
    seed: SeedLike = 0,
) -> KMeansResult:
    """The canonical Module 5 solution.

    Rank 0 generates (or receives) the single 2-d dataset the module
    prescribes, scatters ``N/p``-point blocks, and the ranks iterate.
    ``method`` selects the communication option (see module docstring).
    """
    if method not in ("weighted", "explicit"):
        raise ValidationError(f"method must be 'weighted' or 'explicit', got {method!r}")
    full, local, centroids = _scatter_dataset(comm, points, n, k, dims, seed)
    return _lloyd(
        comm, local, centroids, full=full, method=method, start=0,
        max_iter=max_iter, tol=tol,
    )


def _scatter_dataset(
    comm, points: Optional[np.ndarray], n: int, k: int, dims: int, seed: SeedLike
) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Rank 0 scatters ``N/p``-point blocks of ``points`` (generated if
    ``None``) and broadcasts the initial centroids; returns ``(full,
    local, centroids)``, with ``full`` only on rank 0."""
    full: Optional[np.ndarray] = None
    chunks = centroids = None
    if comm.rank == 0:
        if points is None:
            full, _, _ = gaussian_mixture(n, k, dims, seed=seed)
        else:
            full = check_points("points", points)
        chunks = partition_points(full, comm.size)
        centroids = initial_centroids(full, k, seed=seed)
    local = comm.scatter(chunks, root=0)
    return full, local, comm.bcast(centroids, root=0)


def _lloyd(
    comm,
    local: np.ndarray,
    centroids: np.ndarray,
    *,
    full: Optional[np.ndarray],
    method: str,
    start: int,
    max_iter: int,
    tol: float,
    after_iteration: Optional[Callable[[int, np.ndarray], None]] = None,
) -> KMeansResult:
    """Lloyd iterations ``start .. max_iter - 1`` over this rank's points,
    then the global inertia.  ``k`` and ``dims`` come from the centroids
    every rank holds; ``full`` (rank 0 only) serves ``explicit``.
    ``after_iteration(iterations, centroids)`` runs after each centroid
    update, before the convergence test."""
    k, dims = centroids.shape
    n_local = len(local)
    compute_time = 0.0
    comm_time = 0.0
    iterations = start
    converged = False

    for it in range(start, max_iter):
        # --- compute phase: assignment + local partial sums -------------
        t0 = comm.wtime()
        labels = assign_points(local, centroids)
        sums, counts = cluster_sums(local, labels, k)
        comm.compute(
            flops=n_local * k * (ASSIGN_FLOPS_PER_ELEMENT * dims + 1.0),
            nbytes=n_local * dims * 8 + k * dims * 8,
        )
        t1 = comm.wtime()
        # --- communication phase: global centroid update -----------------
        if method == "weighted":
            packed = np.concatenate([sums.ravel(), counts])
            total = comm.allreduce(packed, op=smpi.SUM)
            g_sums = total[: k * dims].reshape(k, dims)
            g_counts = total[k * dims :]
        else:
            all_labels = comm.gather(labels, root=0)
            if comm.rank == 0:
                stacked = np.concatenate(all_labels)
                g_sums, g_counts = cluster_sums(full, stacked, k)
            else:
                g_sums = g_counts = None
            g_sums = comm.bcast(g_sums, root=0)
            g_counts = comm.bcast(g_counts, root=0)
        t2 = comm.wtime()
        new_centroids = update_centroids(g_sums, g_counts, centroids)
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        iterations = it + 1
        compute_time += t1 - t0
        comm_time += t2 - t1
        if after_iteration is not None:
            after_iteration(iterations, centroids)
        if shift <= tol:
            converged = True
            break

    labels = assign_points(local, centroids)
    local_sse = float(((local - centroids[labels]) ** 2).sum())
    inertia = comm.allreduce(local_sse, op=smpi.SUM)
    return KMeansResult(
        centroids=centroids,
        local_labels=labels,
        iterations=iterations,
        converged=converged,
        inertia=inertia,
        compute_time=compute_time,
        comm_time=comm_time,
        method=method,
    )


def kmeans_recoverable(
    comm,
    store,
    attempt: int,
    *,
    n: int = 4096,
    k: int = 8,
    dims: int = 2,
    max_iter: int = 10,
    tol: float = 1e-12,
    seed: SeedLike = 0,
    checkpoint_every: int = 1,
) -> KMeansResult:
    """Module 5 k-means (the ``weighted`` method) as a recoverable body
    for :func:`repro.recovery.run_with_recovery`.

    Epoch 0 checkpoints each rank's scattered points plus the initial
    centroids; every ``checkpoint_every`` iterations the (small) global
    centroids are checkpointed again.  After a crash the survivors roll
    back to the last globally consistent epoch, adopt the dead ranks'
    epoch-0 points round-robin, and re-iterate — converging to the same
    centroids (within floating-point regrouping tolerance) as the
    fault-free run.  If a rank died *before* its first checkpoint,
    nothing of it can be adopted, so the body falls back to a fresh
    deterministic restart on the shrunken communicator (the full dataset
    is regenerated from ``seed``, so no data is lost either way).
    """
    check_positive("checkpoint_every", checkpoint_every)
    original = set(range(comm.world.nprocs))
    members = set(store.ranks())
    orphans = sorted(original - set(comm.group))
    resume = (
        attempt > 0
        and set(orphans) <= members
        and set(comm.group) <= members
    )
    if not resume:
        # Fresh (re)start: rank 0 of the *current* comm generates and
        # scatters; everyone checkpoints the epoch-0 state.
        _, local, centroids = _scatter_dataset(comm, None, n, k, dims, seed)
        store.save(
            comm, 0,
            {"points": local, "centroids": centroids, "iteration": 0},
        )
        start_iter = 0
    else:
        # Roll back: own points from epoch 0, dead ranks' points adopted
        # round-robin (deterministic in the shrunken rank order), then
        # centroids/iteration from the last globally consistent epoch.
        epoch = store.latest_consistent_epoch(comm.group)
        base = store.load(comm, 0)
        local = base["points"]
        for i, wr in enumerate(orphans):
            if i % comm.size == comm.rank:
                adopted = store.load(comm, 0, rank=wr)
                local = np.concatenate([local, adopted["points"]])
        state = store.rollback(comm, epoch)
        centroids = state["centroids"]
        start_iter = int(state["iteration"])

    def checkpoint(iteration: int, centroids: np.ndarray) -> None:
        if iteration % checkpoint_every == 0:
            store.save(
                comm, iteration, {"centroids": centroids, "iteration": iteration}
            )

    return _lloyd(
        comm, local, centroids, full=None, method="weighted", start=start_iter,
        max_iter=max_iter, tol=tol, after_iteration=checkpoint,
    )


def communication_volume_per_iteration(
    n: int, p: int, k: int, dims: int, method: str
) -> float:
    """Bytes a single rank contributes per iteration under each option —
    the back-of-envelope the module asks students to do before measuring."""
    check_positive("n", n)
    check_positive("p", p)
    check_positive("k", k)
    check_positive("dims", dims)
    if method == "weighted":
        return k * (dims + 1) * 8.0
    if method == "explicit":
        return (n / p) * 8.0 + k * dims * 8.0
    raise ValidationError(f"unknown method {method!r}")
