"""A kd-tree (Bentley 1975) — the paper's first-cited index alternative.

Median-split construction over numpy index arrays, bucket leaves, and a
counting range query compatible with :class:`~repro.spatial.rtree.RTree`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.spatial.geometry import QueryStats, Rect, profile_by_queries
from repro.util.validation import check_points, check_positive


class _KDNode:
    __slots__ = ("axis", "split", "left", "right", "indices")

    def __init__(self):
        self.axis = -1
        self.split = 0.0
        self.left: Optional["_KDNode"] = None
        self.right: Optional["_KDNode"] = None
        self.indices: Optional[np.ndarray] = None  # leaf bucket

    @property
    def leaf(self) -> bool:
        return self.indices is not None


class KDTree:
    """A static kd-tree over an ``(n, d)`` point array."""

    def __init__(self, points: np.ndarray, leaf_size: int = 16):
        self.points = check_points("points", points)
        check_positive("leaf_size", leaf_size)
        self.leaf_size = leaf_size
        self.dims = self.points.shape[1]
        self.root = self._build(np.arange(len(self.points)), depth=0)

    def __len__(self) -> int:
        return len(self.points)

    def _build(self, idx: np.ndarray, depth: int) -> _KDNode:
        node = _KDNode()
        if len(idx) <= self.leaf_size:
            node.indices = idx
            return node
        # Split on the axis with the widest spread for better balance.
        spans = self.points[idx].max(axis=0) - self.points[idx].min(axis=0)
        axis = int(np.argmax(spans))
        mid = len(idx) // 2
        part = idx[np.argpartition(self.points[idx, axis], mid)]
        node.axis = axis
        node.split = float(self.points[part[mid], axis])
        node.left = self._build(part[:mid], depth + 1)
        node.right = self._build(part[mid:], depth + 1)
        return node

    def query_range(self, rect: Rect, stats: Optional[QueryStats] = None) -> np.ndarray:
        """Indices of points inside ``rect``; counts work into ``stats``."""
        if rect.dims != self.dims:
            raise ValidationError(f"query rect has {rect.dims} dims, index has {self.dims}")
        local = stats if stats is not None else QueryStats()
        out: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            local.nodes_visited += 1
            if node.leaf:
                idx = node.indices
                local.entries_checked += len(idx)
                mask = rect.contains_points(self.points[idx])
                if mask.any():
                    out.append(idx[mask])
                continue
            local.entries_checked += 1
            if rect.mins[node.axis] <= node.split:
                stack.append(node.left)
            if rect.maxs[node.axis] >= node.split:
                stack.append(node.right)
        if not out:
            return np.empty(0, dtype=np.int64)
        result = np.sort(np.concatenate(out)).astype(np.int64)
        local.results += len(result)
        return result

    def profile(self, boxes) -> np.ndarray:
        """Per-query (matches, nodes visited, entries checked) of a
        ``(q, d, 2)`` array of interval boxes."""
        return profile_by_queries(self, boxes)
