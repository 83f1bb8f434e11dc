"""The modules' compute kernels: one implementation home, one roofline.

Two jobs live here:

1. **The hot kernels themselves.**  The numeric inner loops of the
   teaching modules — Module 2's tiled distance-matrix block, Module 5's
   k-means assignment/update, Module 3's histogram splitters — are
   implemented once, vectorized with numpy.  The module files delegate
   here and keep the *cost-model charging* themselves, so virtual time
   depends only on the cost models, never on how the numbers were
   computed.

2. **The roofline chart.**  :func:`module_kernel_roofline` renders the
   chart that summarizes the paper's performance narrative: which module
   kernels sit under the memory roof (bucket sort, R-tree traversal,
   row-wise distance matrix) and which sit on the compute roof (tiled
   distance matrix, brute-force scan) — and therefore who scales and who
   saturates.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np


# -- Module 2: distance-matrix block ------------------------------------------


def pairwise_block(a: Any, b: Any) -> Any:
    """Euclidean distance block between rows of ``a`` and rows of ``b``.

    The kernel behind :func:`repro.modules.module2_distance.pairwise_distances`
    (and its tiled variant, which calls this once per column tile).
    Numerically clipped so round-off never yields NaN on the diagonal.
    """
    sq_a = np.einsum("ij,ij->i", a, a)[:, None]
    sq_b = np.einsum("ij,ij->i", b, b)[None, :]
    d2 = sq_a + sq_b - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


# -- Module 5: k-means assignment / update ------------------------------------


def kmeans_assign(points: Any, centroids: Any) -> Any:
    """Nearest-centroid label per point.

    Scores ``||c||² - 2·x·c`` (the ``||x||²`` term is constant per row);
    the first minimum wins ties.
    """
    cross = points @ centroids.T
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    return np.argmin(c2[None, :] - 2.0 * cross, axis=1)


def kmeans_update(points: Any, labels: Any, k: int) -> tuple[Any, Any]:
    """Per-cluster coordinate sums and counts (the "weighted means")."""
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return sums, counts


def centroid_step(sums: Any, counts: Any, previous: Any) -> Any:
    """New centroid positions; clusters that lost all points keep their
    previous position (the standard empty-cluster rule)."""
    out = previous.copy()
    nonempty = counts > 0
    out[nonempty] = sums[nonempty] / counts[nonempty, None]
    return out


# -- Module 3: histogram splitters --------------------------------------------


def histogram_cuts(sample: Any, p: int, bins: int) -> Any:
    """``p-1`` boundaries cutting the sample's histogram mass into ``p``
    equal parts, interpolating within bins (the activity-3 recipe)."""
    counts, edges = np.histogram(sample, bins=bins)
    cumulative = np.concatenate([[0], np.cumsum(counts)]).astype(np.float64)
    targets = np.arange(1, p) * sample.size / p
    return np.interp(targets, cumulative, edges)


# -- the roofline chart --------------------------------------------------------


def module_kernels(dims: int = 90, tile: int = 128) -> dict[str, tuple[float, float]]:
    """Per-unit (flops, bytes) of each module's inner kernel, from the
    same constants the cost models charge."""
    # Imported lazily: the module files delegate their kernels here, so a
    # top-level import would be circular.
    from repro.modules.module2_distance import FLOPS_PER_ELEMENT as M2_FLOPS
    from repro.modules.module3_sort import (
        SORT_BYTES_PER_ELEMENT_LEVEL,
        SORT_FLOPS_PER_ELEMENT_LEVEL,
    )
    from repro.modules.module4_range import (
        BRUTE_MISS_FRACTION,
        FLOPS_PER_ENTRY,
        RTREE_RANDOM_ACCESS_PENALTY,
        _node_bytes,
    )

    point_bytes = dims * 8.0
    lines = -(-point_bytes // 64) * 64.0
    return {
        "M2 distance matrix, row-wise": (M2_FLOPS * dims, lines),
        "M2 distance matrix, tiled": (M2_FLOPS * dims, lines / tile + lines / 2048),
        "M3 bucket sort": (
            SORT_FLOPS_PER_ELEMENT_LEVEL, SORT_BYTES_PER_ELEMENT_LEVEL,
        ),
        "M4 brute-force scan": (FLOPS_PER_ENTRY, 2 * 8.0 * BRUTE_MISS_FRACTION),
        "M4 R-tree traversal": (
            FLOPS_PER_ENTRY * 16,
            _node_bytes(2, 16) * RTREE_RANDOM_ACCESS_PENALTY,
        ),
        "M5 k-means assignment (k=8)": (3.0 * 8 * 2, 2 * 8.0),
    }


def module_kernel_roofline(
    cluster: Optional[Any] = None, *, ranks_on_node: int = 1, **render_kwargs
) -> str:
    """Render every module kernel on the node's roofline.

    ``ranks_on_node`` selects whose bandwidth share the roof uses: 1
    shows the single-rank picture (core-cap roof), a full node shows why
    packed memory-bound kernels stop scaling.
    """
    from repro.cluster import ClusterSpec, ComputeCostModel, render_roofline

    spec = cluster or ClusterSpec.monsoon_like(num_nodes=1)
    node = spec.node
    share = min(node.core_mem_bandwidth, node.mem_bandwidth / max(ranks_on_node, 1))
    model = ComputeCostModel(flops_per_s=node.flops_per_core, bandwidth=share)
    return render_roofline(model, module_kernels(), **render_kwargs)
