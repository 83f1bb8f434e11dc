"""A point-region quadtree (Finkel & Bentley 1974) for 2-d data.

The paper's third-cited index alternative.  Buckets split into four
quadrants when they overflow; range queries prune non-intersecting
quadrants and count their work like the other indexes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.spatial.geometry import QueryStats, Rect, profile_by_queries
from repro.util.validation import check_points, check_positive


class _QuadNode:
    __slots__ = ("rect", "points", "indices", "children")

    def __init__(self, rect: Rect):
        self.rect = rect
        self.points: list[np.ndarray] = []
        self.indices: list[int] = []
        self.children: Optional[list["_QuadNode"]] = None

    @property
    def leaf(self) -> bool:
        return self.children is None


class QuadTree:
    """A 2-d quadtree with bucket capacity ``capacity``."""

    def __init__(self, bounds: Rect, capacity: int = 16, max_depth: int = 32):
        if bounds.dims != 2:
            raise ValidationError("QuadTree requires 2-d bounds")
        check_positive("capacity", capacity)
        check_positive("max_depth", max_depth)
        self.capacity = capacity
        self.max_depth = max_depth
        self.root = _QuadNode(bounds)
        self._size = 0

    @classmethod
    def from_points(cls, points: np.ndarray, capacity: int = 16) -> "QuadTree":
        pts = check_points("points", points, dims=2)
        # Grow bounds a hair so max-coordinate points insert cleanly.
        span = np.maximum(pts.max(axis=0) - pts.min(axis=0), 1e-12)
        bounds = Rect(pts.min(axis=0) - 1e-9 * span, pts.max(axis=0) + 1e-9 * span)
        tree = cls(bounds, capacity=capacity)
        for i, p in enumerate(pts):
            tree.insert(p, i)
        return tree

    def __len__(self) -> int:
        return self._size

    def insert(self, point, index: int) -> None:
        p = np.asarray(point, dtype=np.float64)
        if not self.root.rect.contains_point(p):
            raise ValidationError(f"point {p.tolist()} outside quadtree bounds")
        node, depth = self.root, 0
        while not node.leaf:
            node = node.children[self._quadrant(node.rect, p)]
            depth += 1
        node.points.append(p)
        node.indices.append(index)
        self._size += 1
        if len(node.points) > self.capacity and depth < self.max_depth:
            self._split(node)

    @staticmethod
    def _quadrant(rect: Rect, p: np.ndarray) -> int:
        cx, cy = (rect.mins + rect.maxs) / 2.0
        return (2 if p[1] > cy else 0) + (1 if p[0] > cx else 0)

    def _split(self, node: _QuadNode) -> None:
        lo, hi = node.rect.mins, node.rect.maxs
        cx, cy = (lo + hi) / 2.0
        node.children = [
            _QuadNode(Rect([lo[0], lo[1]], [cx, cy])),
            _QuadNode(Rect([cx, lo[1]], [hi[0], cy])),
            _QuadNode(Rect([lo[0], cy], [cx, hi[1]])),
            _QuadNode(Rect([cx, cy], [hi[0], hi[1]])),
        ]
        for p, i in zip(node.points, node.indices):
            child = node.children[self._quadrant(node.rect, p)]
            child.points.append(p)
            child.indices.append(i)
        node.points, node.indices = [], []

    def query_range(self, rect: Rect, stats: Optional[QueryStats] = None) -> np.ndarray:
        """Indices of points inside ``rect``."""
        if rect.dims != 2:
            raise ValidationError("query rect must be 2-d")
        local = stats if stats is not None else QueryStats()
        out: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            local.nodes_visited += 1
            if node.leaf:
                local.entries_checked += len(node.points)
                for p, i in zip(node.points, node.indices):
                    if rect.contains_point(p):
                        out.append(i)
                continue
            for child in node.children:
                if rect.intersects(child.rect):
                    stack.append(child)
        local.results += len(out)
        return np.sort(np.asarray(out, dtype=np.int64))

    def profile(self, boxes) -> np.ndarray:
        """Per-query (matches, nodes visited, entries checked) of a
        ``(q, 2, 2)`` array of interval boxes."""
        return profile_by_queries(self, boxes)
