"""Module 2 — Distance Matrix.

Students compute the ``N x N`` distance matrix on 90-dimensional points,
first with a row-wise access pattern, then tiled; they compare the two
with a cache-measurement tool and observe that the (tiled) kernel is
compute-bound and scales almost perfectly.

Reproduction notes:

* The *numerics* are real — :func:`pairwise_distances` and the tiled
  variant produce identical matrices, vectorized per the guides.
* The *memory behaviour* is measured by replaying each traversal's
  cache-line access trace through :class:`~repro.cluster.memory.CacheSim`
  (our ``perf`` substitute) and cross-checked against the analytic model.
* The *cost model* charges ``3·d`` flops per matrix element plus the
  memory traffic predicted by the miss model, so on the default node
  (ridge ≈ 8 flop/B when 32 ranks share the bandwidth) the row-wise
  traversal (AI ≈ 0.35 flop/B) is memory-bound while the tiled one
  (AI ≈ tile/2 flop/B) is compute-bound — exactly the contrast the
  module teaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.memory import CacheSim, CacheStats
from repro.data import feature_vectors, partition_points
from repro.harness.kernels import pairwise_block
from repro.smpi import MAX, SUM
from repro.util.validation import check_points, check_positive

#: flops charged per (pair, dimension): subtract, square, accumulate.
FLOPS_PER_ELEMENT = 3.0
#: extra flops per pair for the final square root.
FLOPS_PER_PAIR = 20.0
#: fraction of the cache the streamed tile may occupy before thrashing.
CACHE_OCCUPANCY = 0.75


# -- kernels -------------------------------------------------------------------


def pairwise_distances(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``.

    The row-wise reference kernel.  The numerics live in
    :func:`repro.harness.kernels.pairwise_block`; this wrapper owns the
    validation.
    """
    a = check_points("a", a)
    b = a if b is None else check_points("b", b, dims=a.shape[1])
    return pairwise_block(a, b)


def pairwise_distances_tiled(
    a: np.ndarray, b: Optional[np.ndarray] = None, tile: int = 128
) -> np.ndarray:
    """Tiled distance matrix: the inner (column) loop is blocked into
    tiles of ``tile`` points so the working set stays cache-resident.

    Produces exactly the same matrix as :func:`pairwise_distances`.
    """
    check_positive("tile", tile)
    a = check_points("a", a)
    b = a if b is None else check_points("b", b, dims=a.shape[1])
    n_b = len(b)
    out = np.empty((len(a), n_b))
    for start in range(0, n_b, tile):
        stop = min(start + tile, n_b)
        out[:, start:stop] = pairwise_distances(a, b[start:stop])
    return out


# -- cache-behaviour measurement (the "perf tool") -----------------------------------


def traversal_trace(
    rows: int,
    n: int,
    dims: int,
    *,
    tile: Optional[int] = None,
    line_bytes: int = 64,
):
    """Yield the cache-line access trace of the distance-matrix traversal.

    Memory layout: the ``rows`` local points (array A) sit first, the
    ``n`` full dataset points (array B) after them, both row-major
    contiguous float64.  Row-wise (``tile=None``): for each A-row, stream
    all of B.  Tiled: for each B-tile, stream all A-rows against it.

    Yields one int64 line-index array per (row, tile) step, sized for
    efficient feeding into :meth:`CacheSim.access_lines`.
    """
    check_positive("rows", rows)
    check_positive("n", n)
    check_positive("dims", dims)
    point_bytes = dims * 8
    lines_per_point = math.ceil(point_bytes / line_bytes)
    b_base_line = (rows * point_bytes) // line_bytes + 1

    def point_lines(base_line: int, index: int) -> np.ndarray:
        start = base_line + (index * point_bytes) // line_bytes
        return np.arange(start, start + lines_per_point, dtype=np.int64)

    tile_size = n if tile is None else tile
    for t_start in range(0, n, tile_size):
        t_stop = min(t_start + tile_size, n)
        tile_lines = np.concatenate(
            [point_lines(b_base_line, j) for j in range(t_start, t_stop)]
        )
        for i in range(rows):
            yield np.concatenate([point_lines(0, i), tile_lines])


def measure_cache_misses(
    rows: int,
    n: int,
    dims: int = 90,
    *,
    tile: Optional[int] = None,
    cache_bytes: int = 1 << 20,
    line_bytes: int = 64,
    ways: int = 8,
) -> CacheStats:
    """Replay a traversal through the cache simulator; returns its stats.

    This is the module's activity 3 ("utilize a performance tool to
    measure cache misses") with :class:`CacheSim` standing in for
    ``perf stat -e cache-misses``.
    """
    sim = CacheSim(size_bytes=cache_bytes, line_bytes=line_bytes, ways=ways)
    for access in traversal_trace(rows, n, dims, tile=tile, line_bytes=line_bytes):
        sim.access_lines(access)
    return sim.stats


def predicted_misses(
    rows: int,
    n: int,
    dims: int,
    *,
    tile: Optional[int] = None,
    cache_bytes: int = 1 << 20,
    line_bytes: int = 64,
) -> int:
    """Analytic miss count for the traversal (the model students derive).

    Row-wise with B overflowing the cache: every B access misses
    (``rows·n·Lp``) plus compulsory A loads.  Tiled with a cache-resident
    tile: each tile loads once (``n·Lp`` total) and each A row re-loads
    once per tile.
    """
    point_bytes = dims * 8
    lines_per_point = math.ceil(point_bytes / line_bytes)
    usable = cache_bytes * CACHE_OCCUPANCY
    if tile is not None:
        check_positive("tile", tile)
        if tile * point_bytes > usable:
            tile = None  # oversized tiles thrash: behaves row-wise
    if tile is None:
        if n * point_bytes <= usable:
            return (rows + n) * lines_per_point
        return rows * lines_per_point + rows * n * lines_per_point
    ntiles = math.ceil(n / tile)
    return n * lines_per_point + ntiles * rows * lines_per_point


# -- the distributed activity -----------------------------------------------------


@dataclass(frozen=True)
class DistanceMatrixResult:
    """Per-rank outcome of the distributed distance-matrix activity."""

    rows: int
    n: int
    dims: int
    tile: Optional[int]
    local_sum: float
    global_sum: Optional[float]  # only on root
    global_max: Optional[float]  # only on root
    compute_seconds: float


def distributed_distance_matrix(
    comm,
    points: Optional[np.ndarray] = None,
    *,
    n: int = 512,
    dims: int = 90,
    tile: Optional[int] = None,
    seed=0,
) -> DistanceMatrixResult:
    """The canonical Module 2 solution.

    Rank 0 holds (or generates) the dataset, ``MPI_Scatter``s row blocks,
    broadcasts the full dataset, each rank computes its block of the
    matrix, and ``MPI_Reduce`` combines summary statistics at the root —
    the exact primitive set Table II prescribes.

    Virtual time is charged from the roofline model using the analytic
    miss predictor, so the row-wise and tiled variants genuinely differ
    in simulated runtime.
    """
    if comm.rank == 0:
        data = feature_vectors(n, dims, seed=seed) if points is None else (
            check_points("points", points)
        )
        n, dims = data.shape
        chunks = partition_points(data, comm.size)
    else:
        chunks = None
    # Table II: MPI_Scatter is required in this module.
    local = comm.scatter(chunks, root=0)
    # Every rank needs the full dataset to compute its rows.
    full = comm.bcast(data if comm.rank == 0 else None, root=0)
    n, dims = full.shape
    rows = len(local)

    if tile is None:
        block = pairwise_distances(local, full)
    else:
        block = pairwise_distances_tiled(local, full, tile=tile)

    cache_bytes = comm.world.cluster.node.l2_cache_bytes
    line = comm.world.cluster.node.cache_line_bytes
    misses = predicted_misses(
        rows, n, dims, tile=tile, cache_bytes=cache_bytes, line_bytes=line
    )
    flops = rows * n * (FLOPS_PER_ELEMENT * dims + FLOPS_PER_PAIR)
    compute_seconds = comm.compute(flops=flops, nbytes=misses * line)

    local_sum = float(block.sum())
    local_max = float(block.max()) if block.size else 0.0
    # Table II: MPI_Reduce is required in this module.
    global_sum = comm.reduce(local_sum, op=SUM, root=0)
    global_max = comm.reduce(local_max, op=MAX, root=0)
    return DistanceMatrixResult(
        rows=rows,
        n=n,
        dims=dims,
        tile=tile,
        local_sum=local_sum,
        global_sum=global_sum,
        global_max=global_max,
        compute_seconds=compute_seconds,
    )


def tile_sweep_misses(
    n: int,
    dims: int = 90,
    tiles: tuple[Optional[int], ...] = (None, 8, 32, 128, 512, 2048),
    *,
    rows: Optional[int] = None,
    cache_bytes: int = 1 << 20,
) -> dict[Optional[str], int]:
    """Predicted misses across tile sizes (learning outcome 6: the
    small-vs-large tile trade-off).  Keys are stringified tile sizes."""
    rows = n if rows is None else rows
    return {
        ("row-wise" if t is None else str(t)): predicted_misses(
            rows, n, dims, tile=t, cache_bytes=cache_bytes
        )
        for t in tiles
    }
