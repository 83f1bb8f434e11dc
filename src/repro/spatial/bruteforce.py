"""Brute-force range scanning — Module 4 activity 1.

No index, no pruning: every query tests every point.  Fully vectorized
(the guides' rule: no Python loops in hot paths), so at teaching scale it
is *absolutely* fast in real time while being *algorithmically* the
expensive baseline the module contrasts against the R-tree.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.spatial.geometry import QueryStats, Rect, query_bounds
from repro.util.validation import check_points


def count_in_boxes(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per box, the number of ``points`` inside ``[lo[k], hi[k]]``
    (inclusive bounds), the count :meth:`Rect.contains_points` gives.

    The points are sorted by x once.  ``searchsorted`` (left of ``lo``,
    right of ``hi``) finds the x-slab holding exactly the points whose x
    lies in the box, points on a bound included; the inclusive mask then
    runs over that slab's other coordinates only.  A NaN bound matches
    nothing: a NaN ``lo`` sorts after every x, leaving an empty slab, and
    a NaN ``hi`` empties its slab explicitly; on the other axes the
    comparisons fail.
    """
    order = np.argsort(points[:, 0])
    xs = points[order, 0]
    others = [np.ascontiguousarray(points[order, axis]) for axis in range(1, points.shape[1])]
    start = np.searchsorted(xs, lo[:, 0], side="left")
    stop = np.searchsorted(xs, hi[:, 0], side="right")
    stop[np.isnan(hi[:, 0])] = 0
    counts = np.maximum(stop - start, 0)
    if others:
        for k in np.flatnonzero(counts).tolist():
            a, b = start[k], stop[k]
            inside = np.ones(b - a, dtype=bool)
            for axis, col in enumerate(others, start=1):
                slab = col[a:b]
                inside &= slab >= lo[k, axis]
                inside &= slab <= hi[k, axis]
            counts[k] = np.count_nonzero(inside)
    return counts


class BruteForceIndex:
    """The non-index: linear scans with the shared query interface."""

    def __init__(self, points: np.ndarray):
        self.points = check_points("points", points)
        self.dims = self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def query_range(self, rect: Rect, stats: Optional[QueryStats] = None) -> np.ndarray:
        """Indices of all points inside ``rect`` (inclusive bounds)."""
        if rect.dims != self.dims:
            raise ValidationError(f"query rect has {rect.dims} dims, index has {self.dims}")
        mask = rect.contains_points(self.points)
        out = np.flatnonzero(mask).astype(np.int64)
        if stats is not None:
            stats.nodes_visited += 1
            stats.entries_checked += len(self.points)
            stats.results += len(out)
        return out

    def profile(self, boxes) -> np.ndarray:
        """Per-query (matches, nodes visited, entries checked) of a
        ``(q, d, 2)`` array of interval boxes: every query visits the one
        node and checks every point; only the matches need counting."""
        lo, hi = query_bounds(boxes, self.dims)
        out = np.empty((len(lo), 3), dtype=np.int64)
        out[:, 0] = count_in_boxes(self.points, lo, hi)
        out[:, 1] = 1
        out[:, 2] = len(self.points)
        return out

    def query_knn(
        self, point, k: int, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Indices of the ``k`` nearest points to ``point`` (ascending
        distance; ties broken by index)."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dims,):
            raise ValidationError(f"query point must have {self.dims} dims")
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        k = min(k, len(self.points))
        d2 = np.einsum("ij,ij->i", self.points - p, self.points - p)
        # argpartition then a stable sort of the head: deterministic ties.
        head = np.argpartition(d2, k - 1)[:k]
        order = np.lexsort((head, d2[head]))
        if stats is not None:
            stats.nodes_visited += 1
            stats.entries_checked += len(self.points)
            stats.results += k
        return head[order].astype(np.int64)

    def query_count(self, rect: Rect, stats: Optional[QueryStats] = None) -> int:
        """Number of points inside ``rect`` without materializing indices."""
        if rect.dims != self.dims:
            raise ValidationError(f"query rect has {rect.dims} dims, index has {self.dims}")
        count = int(rect.contains_points(self.points).sum())
        if stats is not None:
            stats.nodes_visited += 1
            stats.entries_checked += len(self.points)
            stats.results += count
        return count
