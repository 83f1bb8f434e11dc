"""Module 3 — Distribution Sort.

A bucket sort in distributed memory: every rank starts with local
unsorted data, the ranks exchange elements so rank ``r`` ends up owning
bucket ``r`` (a contiguous value range), and each rank sorts its bucket
locally.  Data stays distributed — the module's nod to datasets that
exceed one node's memory.

Three activities:

1. uniform data, equal-width buckets → balanced by construction;
2. exponential data, equal-width buckets → severe load imbalance
   (the data-dependent-workload lesson);
3. histogram-based splitters computed by rank 0 from *its local data*
   (as the paper specifies) → balance restored.

Communication sticks to the Table II set for this module: point-to-point
``MPI_Send``/``MPI_Recv`` (with ``MPI_Get_count`` on the receive side)
for the exchange and the splitter distribution, and ``MPI_Reduce`` for
validation.  Sorting is charged as a memory-bound kernel (≈0.25 flop/B),
which is why this module scales worse than Module 2 — learning
outcome 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import smpi
from repro.data import exponential_values, uniform_values
from repro.errors import ValidationError
from repro.harness.kernels import histogram_cuts
from repro.util.rng import spawn_rng
from repro.util.validation import check_positive, require

#: charged flops per element per merge level (compare + move bookkeeping)
SORT_FLOPS_PER_ELEMENT_LEVEL = 2.0
#: charged bytes per element per merge level (read + write a float64)
SORT_BYTES_PER_ELEMENT_LEVEL = 16.0


@dataclass(frozen=True)
class SortResult:
    """Per-rank outcome of one distribution-sort run."""

    local_sorted: np.ndarray
    sent_elements: int
    received_elements: int
    bucket_sizes: Optional[list[int]]  # root only
    global_count: Optional[int]  # root only
    imbalance: Optional[float]  # root only: max/mean bucket size

    @property
    def bucket_size(self) -> int:
        return len(self.local_sorted)


# -- splitter policies -------------------------------------------------------


def equal_width_splitters(lo: float, hi: float, p: int) -> np.ndarray:
    """``p-1`` interior boundaries of equal-width buckets over [lo, hi]."""
    check_positive("p", p)
    require(hi > lo, f"hi must exceed lo, got [{lo}, {hi}]")
    return np.linspace(lo, hi, p + 1)[1:-1]


def histogram_splitters(sample: np.ndarray, p: int, bins: int = 256) -> np.ndarray:
    """``p-1`` boundaries chosen so the sample spreads evenly.

    Builds a histogram of the sample and cuts its cumulative mass into
    ``p`` equal parts, interpolating within bins — the activity-3 recipe.
    Works from *one rank's local data* exactly as the module prescribes,
    so it is an estimate; it balances well whenever the local sample is
    representative.
    """
    check_positive("p", p)
    check_positive("bins", bins)
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValidationError("histogram_splitters needs a non-empty sample")
    # The numerics live in repro.harness.kernels.
    return histogram_cuts(sample, p, bins)


# -- the distributed sort ---------------------------------------------------------


def partition_by_splitters(
    values: np.ndarray, splitters: np.ndarray
) -> list[np.ndarray]:
    """Split ``values`` into ``len(splitters)+1`` bucket arrays."""
    values = np.asarray(values, dtype=np.float64)
    bucket_ids = np.searchsorted(splitters, values, side="right")
    order = np.argsort(bucket_ids, kind="stable")
    sorted_ids = bucket_ids[order]
    boundaries = np.searchsorted(sorted_ids, np.arange(len(splitters) + 2))
    arranged = values[order]
    return [
        arranged[boundaries[b] : boundaries[b + 1]]
        for b in range(len(splitters) + 1)
    ]


def distribution_sort(comm, local_values: np.ndarray, splitters: np.ndarray) -> SortResult:
    """Exchange-and-sort given agreed splitters.

    Rank ``r`` receives every element in bucket ``r``.  The exchange is
    point-to-point: one send per peer, one receive per peer with a
    ``Status`` whose ``Get_count`` reports the incoming bucket size.
    """
    local_values = np.asarray(local_values, dtype=np.float64)
    splitters = np.asarray(splitters, dtype=np.float64)
    if len(splitters) != comm.size - 1:
        raise ValidationError(
            f"need {comm.size - 1} splitters for {comm.size} ranks, got {len(splitters)}"
        )
    parts = partition_by_splitters(local_values, splitters)
    # Charge the partitioning pass: binary-search each element.
    levels = max(1.0, np.log2(max(comm.size, 2)))
    comm.compute(
        flops=local_values.size * 2.0 * levels, nbytes=local_values.size * 16.0
    )
    # Exchange: non-blocking sends, then a receive (with count) per peer.
    requests = [
        comm.isend(parts[peer], dest=peer, tag=3)
        for peer in range(comm.size)
        if peer != comm.rank
    ]
    pieces = [parts[comm.rank]]
    received = 0
    for _ in range(comm.size - 1):
        status = smpi.Status()
        piece = comm.recv(source=smpi.ANY_SOURCE, tag=3, status=status)
        received += comm.get_count(status, 8)  # MPI_Get_count, per Table II
        pieces.append(piece)
    smpi.waitall(requests)
    bucket = np.concatenate(pieces) if pieces else np.empty(0)
    # Local sort, charged as the memory-bound kernel it is.
    m = bucket.size
    if m > 1:
        sort_levels = np.log2(m)
        comm.compute(
            flops=m * SORT_FLOPS_PER_ELEMENT_LEVEL * sort_levels,
            nbytes=m * SORT_BYTES_PER_ELEMENT_LEVEL * sort_levels,
        )
    bucket = np.sort(bucket)
    sent = int(sum(len(parts[peer]) for peer in range(comm.size) if peer != comm.rank))
    # Validation via the module's required primitive: MPI_Reduce.
    bucket_sizes = comm.gather(int(m), root=0)
    global_count = comm.reduce(int(m), op=smpi.SUM, root=0)
    imbalance = None
    if comm.rank == 0:
        mean = np.mean(bucket_sizes) if bucket_sizes else 0.0
        imbalance = float(max(bucket_sizes) / mean) if mean > 0 else float("inf")
    return SortResult(
        local_sorted=bucket,
        sent_elements=sent,
        received_elements=received,
        bucket_sizes=bucket_sizes,
        global_count=global_count,
        imbalance=imbalance,
    )


def sort_activity(
    comm,
    *,
    n_per_rank: int = 10_000,
    distribution: str = "uniform",
    method: str = "equal",
    seed=0,
    histogram_bins: int = 256,
) -> SortResult:
    """One full activity run: generate local data, agree on splitters,
    sort.

    ``distribution``: ``"uniform"`` (activity 1) or ``"exponential"``
    (activities 2-3).  ``method``: ``"equal"`` width buckets or rank 0's
    ``"histogram"`` splitters (activity 3).  Splitters travel by
    point-to-point sends from rank 0, keeping to this module's primitive
    set.
    """
    check_positive("n_per_rank", n_per_rank)
    if distribution == "uniform":
        local = uniform_values(n_per_rank, seed=spawn_rng(seed, "sort", comm.rank))
        known_range = (0.0, 1.0)
    elif distribution == "exponential":
        local = exponential_values(
            n_per_rank, scale=1.0, seed=spawn_rng(seed, "sort", comm.rank)
        )
        known_range = None
    else:
        raise ValidationError(f"unknown distribution {distribution!r}")

    if method == "equal":
        if known_range is None:
            # Establish the global range with the module's Reduce + sends.
            global_max = comm.reduce(float(local.max()), op=smpi.MAX, root=0)
            if comm.rank == 0:
                for peer in range(1, comm.size):
                    comm.send(global_max, dest=peer, tag=4)
            else:
                global_max = comm.recv(source=0, tag=4)
            lo, hi = 0.0, float(global_max)
        else:
            lo, hi = known_range
        splitters = equal_width_splitters(lo, hi, comm.size)
    elif method == "histogram":
        # Rank 0 derives splitters from ITS local data (paper's recipe)
        # and distributes them point-to-point.
        if comm.rank == 0:
            splitters = histogram_splitters(local, comm.size, bins=histogram_bins)
            for peer in range(1, comm.size):
                comm.send(splitters, dest=peer, tag=5)
        else:
            splitters = comm.recv(source=0, tag=5)
    else:
        raise ValidationError(f"unknown method {method!r}")
    return distribution_sort(comm, local, splitters)


def sort_recoverable(
    comm,
    store,
    attempt: int,
    *,
    n_per_rank: int = 2000,
    distribution: str = "uniform",
    seed=0,
) -> dict:
    """Module 3 bucket sort as a recoverable body for
    :func:`repro.recovery.run_with_recovery`.

    Each rank generates its values seeded by **world rank** and
    checkpoints them at epoch 0 (the pre-exchange cut, marked by a
    barrier — the natural crash-drill point).  After a crash the
    survivors redistribute the dead ranks' epoch-0 buckets round-robin,
    agree on splitters for the *shrunken* communicator, and re-run the
    exchange, so the sorted output still covers every element.  A rank
    that died before checkpointing loses its (not yet shared) values;
    the run then completes with ``complete=False`` — recovered, but
    honest about the data loss.

    A crash *during* the point-to-point exchange is not recoverable
    here: the ``ANY_SOURCE`` receives cannot name a failed peer, so the
    world ends in deadlock detection and the drill reports ``aborted``
    — exactly the motivation for cutting checkpoints at collective
    boundaries.
    """
    check_positive("n_per_rank", n_per_rank)
    if distribution not in ("uniform", "exponential"):
        raise ValidationError(f"unknown distribution {distribution!r}")
    original = set(range(comm.world.nprocs))
    members = set(store.ranks())
    orphans = sorted(original - set(comm.group))
    resume = attempt > 0 and set(comm.group) <= members
    if not resume:
        if distribution == "uniform":
            local = uniform_values(
                n_per_rank, seed=spawn_rng(seed, "sort", comm.world_rank)
            )
        else:
            local = exponential_values(
                n_per_rank, scale=1.0,
                seed=spawn_rng(seed, "sort", comm.world_rank),
            )
        store.save(comm, 0, {"values": local})
        comm.barrier()  # epoch cut: every rank's values are now adoptable
    else:
        local = store.rollback(comm, 0)["values"]
        for i, wr in enumerate(orphans):
            if i % comm.size == comm.rank and wr in members:
                adopted = store.load(comm, 0, rank=wr)
                local = np.concatenate([local, adopted["values"]])
    if distribution == "uniform":
        lo, hi = 0.0, 1.0
    else:
        lo = 0.0
        hi = float(comm.allreduce(float(local.max()), op=smpi.MAX))
    splitters = equal_width_splitters(lo, hi, comm.size)
    result = distribution_sort(comm, local, splitters)
    ok = verify_globally_sorted(comm, result.local_sorted)
    total = int(comm.allreduce(int(result.local_sorted.size), op=smpi.SUM))
    return {
        "rank": comm.rank,
        "sorted": bool(ok),
        "bucket_size": int(result.local_sorted.size),
        "total": total,
        "complete": total == n_per_rank * comm.world.nprocs,
    }


def verify_globally_sorted(comm, local_sorted: np.ndarray) -> bool:
    """Check the distributed sort postcondition.

    Locally sorted, and every rank's maximum is at most the next rank's
    minimum (empty buckets pass vacuously).  Uses allgather of the
    boundary values — a verification step, not part of the graded
    algorithm.
    """
    locally_ok = bool(np.all(np.diff(local_sorted) >= 0))
    lo = float(local_sorted[0]) if local_sorted.size else None
    hi = float(local_sorted[-1]) if local_sorted.size else None
    bounds = comm.allgather((lo, hi, locally_ok))
    prev_hi = -np.inf
    for lo_i, hi_i, ok in bounds:
        if not ok:
            return False
        if lo_i is None:
            continue
        if lo_i < prev_hi:
            return False
        prev_hi = hi_i
    return True
