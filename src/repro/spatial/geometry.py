"""Axis-aligned rectangles (minimum bounding boxes) and query accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError


class Rect:
    """An axis-aligned box ``[mins, maxs]`` in d dimensions (inclusive).

    This is the "minimum bounding box" of the paper's range queries and
    the bounding geometry of every index node.
    """

    __slots__ = ("mins", "maxs")

    def __init__(self, mins, maxs):
        self.mins = np.asarray(mins, dtype=np.float64)
        self.maxs = np.asarray(maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValidationError("mins/maxs must be 1-d arrays of equal length")
        if np.any(self.mins > self.maxs):
            raise ValidationError(f"empty rect: mins {self.mins} exceed maxs {self.maxs}")

    @classmethod
    def _trusted(cls, mins: np.ndarray, maxs: np.ndarray) -> "Rect":
        """Wrap float64 arrays already known to form a valid box
        (an index's own points and bounding boxes): no copy, no check."""
        rect = object.__new__(cls)
        rect.mins = mins
        rect.maxs = maxs
        return rect

    @property
    def dims(self) -> int:
        return self.mins.size

    @classmethod
    def from_point(cls, point) -> "Rect":
        p = np.asarray(point, dtype=np.float64)
        return cls(p, p)

    @classmethod
    def from_points(cls, points) -> "Rect":
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValidationError("from_points needs a non-empty (n, d) array")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @classmethod
    def from_intervals(cls, intervals) -> "Rect":
        """Build from an ``(d, 2)`` array of per-axis ``(lo, hi)`` pairs."""
        arr = np.asarray(intervals, dtype=np.float64)
        return cls(arr[:, 0], arr[:, 1])

    def contains_point(self, point) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(p >= self.mins) and np.all(p <= self.maxs))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership mask for an ``(n, d)`` point array."""
        pts = np.asarray(points, dtype=np.float64)
        return np.all((pts >= self.mins) & (pts <= self.maxs), axis=1)

    def contains_rect(self, other: "Rect") -> bool:
        return bool(np.all(other.mins >= self.mins) and np.all(other.maxs <= self.maxs))

    def intersects(self, other: "Rect") -> bool:
        return bool(np.all(self.mins <= other.maxs) and np.all(other.mins <= self.maxs))

    def union(self, other: "Rect") -> "Rect":
        return Rect._trusted(
            np.minimum(self.mins, other.mins), np.maximum(self.maxs, other.maxs)
        )

    @property
    def area(self) -> float:
        """Hyper-volume of the box (0 for degenerate boxes)."""
        return float(np.prod(self.maxs - self.mins))

    @property
    def margin(self) -> float:
        """Sum of side lengths (used by some split heuristics)."""
        return float(np.sum(self.maxs - self.mins))

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to also cover ``other`` (Guttman's metric)."""
        return self.union(other).area - self.area

    def min_dist2(self, point) -> float:
        """Squared minimum distance from ``point`` to this box
        (Roussopoulos' MINDIST — the k-NN pruning bound)."""
        p = np.asarray(point, dtype=np.float64)
        delta = np.maximum(self.mins - p, 0.0) + np.maximum(p - self.maxs, 0.0)
        return float(np.dot(delta, delta))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rect)
            and np.array_equal(self.mins, other.mins)
            and np.array_equal(self.maxs, other.maxs)
        )

    def __hash__(self) -> int:
        return hash((self.mins.tobytes(), self.maxs.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rect({self.mins.tolist()}, {self.maxs.tolist()})"


@dataclass
class QueryStats:
    """Work counters for one or more queries against an index.

    ``nodes_visited`` approximates the pointer-chasing (memory-bound)
    traffic; ``entries_checked`` approximates the comparison (compute)
    work.  Module 4's cost model charges both.
    """

    nodes_visited: int = 0
    entries_checked: int = 0
    results: int = 0

    def add(self, other: "QueryStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.entries_checked += other.entries_checked
        self.results += other.results

    def reset(self) -> None:
        self.nodes_visited = 0
        self.entries_checked = 0
        self.results = 0


def query_bounds(boxes, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, each ``(q, dims)``, of a ``(q, dims, 2)`` array of
    per-axis ``(lo, hi)`` query intervals, checked as :class:`Rect`
    checks one box (a NaN bound passes and matches nothing)."""
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1:] != (dims, 2):
        raise ValidationError(
            f"query boxes must have shape (q, {dims}, 2), got {arr.shape}"
        )
    lo, hi = arr[:, :, 0], arr[:, :, 1]
    if np.any(lo > hi):
        raise ValidationError("empty query box: a lower bound exceeds its upper bound")
    return lo, hi


def profile_by_queries(index, boxes) -> np.ndarray:
    """``(q, 3)`` of (matches, nodes visited, entries checked) for each
    ``(d, 2)`` interval box, one ``index.query_range`` at a time."""
    profile = np.empty((len(boxes), 3), dtype=np.int64)
    for i, box in enumerate(boxes):
        stats = QueryStats()
        found = index.query_range(Rect.from_intervals(box), stats)
        profile[i] = (len(found), stats.nodes_visited, stats.entries_checked)
    return profile
