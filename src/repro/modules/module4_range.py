"""Module 4 — Range Queries.

Both the input dataset and the query set live on every rank (the
module's stated precondition); ranks split the *queries* and each
answers its share, so the parallelization is embarrassingly parallel and
scaling differences come purely from each algorithm's machine behaviour:

* **Brute force** (activity 1): every query scans every point.  The scan
  is branch/compare-limited, not bandwidth-limited (the dataset stays
  cache-resident across queries), so we charge it compute-heavy: high
  operational intensity → near-perfect strong scaling.
* **R-tree** (activity 2): the supplied index prunes most comparisons —
  orders of magnitude less work, so much faster in absolute terms — but
  the traversal is pointer-chasing over scattered nodes, charged
  memory-heavy: low operational intensity → scalability flattens as
  ranks on a node compete for bandwidth.

That pair of outcomes ("the efficient algorithm scales worse") and the
activity-3 node-placement experiment ("p ranks on 2 nodes beat p ranks
on 1 node") are this module's headline lessons.

Cost-model constants below are calibration choices, documented here per
DESIGN.md §2: they set *where* the rooflines sit, not who wins.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import smpi
from repro.data import asteroid_catalog, asteroid_query_boxes, block_partition
from repro.errors import ValidationError
from repro.spatial import BruteForceIndex, KDTree, QuadTree, QueryStats, RTree
from repro.util.validation import check_positive

#: charged flops per candidate entry examined (compare + branch per dim).
FLOPS_PER_ENTRY = 20.0
#: brute force streams from cache: only this fraction of touched bytes
#: reaches DRAM once the scan loop is warm.
BRUTE_MISS_FRACTION = 0.05
#: R-tree traversals jump between scattered nodes; each visit costs a
#: node's worth of lines with poor spatial reuse.
RTREE_RANDOM_ACCESS_PENALTY = 2.0


@dataclass(frozen=True)
class RangeQueryResult:
    """Per-rank outcome of a range-query activity run."""

    algorithm: str
    n_points: int
    queries_answered: int
    local_matches: int
    global_matches: Optional[int]  # root only
    stats: QueryStats
    compute_seconds: float


def _node_bytes(dims: int, max_entries: int) -> float:
    """Approximate footprint of one R-tree node (rects + child pointers)."""
    return max_entries * (2 * dims * 8 + 8) + 32


def build_index(points: np.ndarray, algorithm: str, *, max_entries: int = 16):
    """Construct the requested index over ``points``."""
    if algorithm == "brute":
        return BruteForceIndex(points)
    if algorithm == "rtree":
        return RTree.bulk_load(points, max_entries=max_entries)
    if algorithm == "kdtree":
        return KDTree(points, leaf_size=max_entries)
    if algorithm == "quadtree":
        return QuadTree.from_points(points, capacity=max_entries)
    raise ValidationError(
        f"unknown algorithm {algorithm!r}; expected brute/rtree/kdtree/quadtree"
    )


# Every rank builds an identical index over the identical replicated
# dataset.  In *virtual* time that build is charged per rank (as it
# would cost on a cluster); in *real* time we build once per unique
# (n, seed, algorithm, max_entries) and share the read-only structure
# across rank threads — a pure simulation-speed optimization.
_INDEX_CACHE: dict[tuple, object] = {}
_INDEX_CACHE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=8)
def _shared_datasets_cached(n: int, q: int, seed: int):
    return asteroid_catalog(n, seed=seed), asteroid_query_boxes(q, seed=seed)


def _shared_datasets(n: int, q: int, seed):
    """Deterministic catalog + queries, generated once per parameter set.

    Every rank would generate byte-identical arrays from the shared
    seed, so caching only removes redundant real-time work; unhashable
    seeds simply bypass the cache.
    """
    if isinstance(seed, int):
        return _shared_datasets_cached(n, q, seed)
    return asteroid_catalog(n, seed=seed), asteroid_query_boxes(q, seed=seed)


def _shared_index(points: np.ndarray, algorithm: str, max_entries: int, key: tuple):
    with _INDEX_CACHE_LOCK:
        index = _INDEX_CACHE.get(key)
        if index is None:
            if len(_INDEX_CACHE) > 8:
                _INDEX_CACHE.clear()
            index = build_index(points, algorithm, max_entries=max_entries)
            _INDEX_CACHE[key] = index
    return index


def _shared_query_profile(index, boxes: np.ndarray, key: tuple) -> np.ndarray:
    """Per-query work profile: ``(q, 3)`` of (matches, nodes, entries).

    Every rank answers a *slice* of the same deterministic query set, so
    profiling each query once and letting ranks aggregate their slices
    is result-identical to per-rank execution — another real-time-only
    optimization (virtual cost is still charged per rank from its own
    slice's counters).
    """
    cache_key = ("profile",) + key
    # Filled under the lock, like the index: the first rank computes the
    # profile while the others wait for it instead of repeating it.
    with _INDEX_CACHE_LOCK:
        profile = _INDEX_CACHE.get(cache_key)
        if profile is None:
            profile = index.profile(boxes)
            _INDEX_CACHE[cache_key] = profile
    return profile


def _query_work(
    algorithm: str, stats: QueryStats, dims: int, max_entries: int
) -> tuple[float, float]:
    """The cost model's ``(flops, nbytes)`` for answered queries."""
    flops = stats.entries_checked * FLOPS_PER_ENTRY
    if algorithm == "brute":
        nbytes = stats.entries_checked * dims * 8 * BRUTE_MISS_FRACTION
    else:
        nbytes = (
            stats.nodes_visited
            * _node_bytes(dims, max_entries)
            * RTREE_RANDOM_ACCESS_PENALTY
        )
    return flops, nbytes


def charge_query_cost(comm, algorithm: str, stats: QueryStats, dims: int, max_entries: int) -> float:
    """Charge the roofline cost of answered queries from work counters."""
    flops, nbytes = _query_work(algorithm, stats, dims, max_entries)
    return comm.compute(flops=flops, nbytes=nbytes)


def range_query_activity(
    comm,
    *,
    n: int = 50_000,
    q: int = 512,
    algorithm: str = "brute",
    max_entries: int = 16,
    seed=0,
) -> RangeQueryResult:
    """The canonical Module 4 solution.

    Every rank regenerates the identical catalog and query set from the
    shared seed (the "datasets are stored on each rank" precondition),
    answers its block of queries, and ``MPI_Reduce``s the total match
    count to the root — the module's required primitive.
    """
    check_positive("n", n)
    check_positive("q", q)
    catalog, boxes = _shared_datasets(n, q, seed)
    points = catalog.points
    index = _shared_index(
        points, algorithm, max_entries, key=(n, repr(seed), algorithm, max_entries)
    )
    # Building the index is a one-time, per-rank cost (the dataset is
    # replicated).  An STR bulk load is sort-dominated — compare-heavy
    # with one streaming pass over the data — so it is charged
    # compute-side, not bandwidth-side.
    if algorithm != "brute":
        comm.compute(
            flops=n * np.log2(max(n, 2)) * FLOPS_PER_ENTRY,
            nbytes=n * points.shape[1] * 8,
        )

    my_slice = block_partition(q, comm.size, comm.rank)
    profile = _shared_query_profile(
        index, boxes, key=(n, q, repr(seed), algorithm, max_entries)
    )[my_slice]
    matches = int(profile[:, 0].sum())
    stats = QueryStats(
        nodes_visited=int(profile[:, 1].sum()),
        entries_checked=int(profile[:, 2].sum()),
        results=matches,
    )
    compute_seconds = charge_query_cost(
        comm, algorithm, stats, points.shape[1], max_entries
    )
    global_matches = comm.reduce(matches, op=smpi.SUM, root=0)
    return RangeQueryResult(
        algorithm=algorithm,
        n_points=n,
        queries_answered=len(profile),
        local_matches=matches,
        global_matches=global_matches,
        stats=stats,
        compute_seconds=compute_seconds,
    )


def dedicated_vs_shared(
    nprocs: int = 16,
    *,
    n: int = 50_000,
    q: int = 4096,
    algorithm: str = "rtree",
    neighbor_demand: float = 8.0,
    cluster=None,
    **kwargs,
) -> dict[str, float]:
    """Activity 3's other axis: a dedicated node vs sharing with a
    memory-hungry neighbour.

    ``neighbor_demand`` is the co-scheduled job's bandwidth appetite in
    rank-equivalents (the Figure 1 scenario).  Returns both virtual
    makespans and the slowdown — which is large for the memory-bound
    R-tree and negligible for the compute-bound brute force, the
    asymmetry the quiz question exploits.
    """
    from repro import smpi
    from repro.cluster import ClusterSpec, Placement

    spec = cluster or ClusterSpec.monsoon_like(num_nodes=1)
    place = Placement.block(spec, nprocs)
    base = dict(n=n, q=q, algorithm=algorithm, **kwargs)
    dedicated = smpi.launch(
        nprocs, range_query_activity, cluster=spec, placement=place, **base
    ).elapsed
    shared = smpi.launch(
        nprocs, range_query_activity, cluster=spec, placement=place,
        external_demand={0: neighbor_demand}, **base,
    ).elapsed
    return {
        "dedicated": dedicated,
        "shared": shared,
        "slowdown": shared / dedicated,
    }


def operational_intensity_of(algorithm: str, stats: QueryStats, dims: int, max_entries: int = 16) -> float:
    """Flops-per-byte this module's cost model assigns a finished run —
    lets students *see* why the brute force scan is compute-bound
    (intensity far above the node ridge) and the R-tree is not."""
    flops, nbytes = _query_work(algorithm, stats, dims, max_entries)
    return flops / nbytes if nbytes else float("inf")
