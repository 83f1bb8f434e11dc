"""Guttman R-tree with quadratic split, plus STR bulk loading.

This is the data structure Module 4 hands students (citing Guttman 1984).
It supports dynamic insertion (ChooseLeaf by least enlargement, quadratic
node split) and Sort-Tile-Recursive bulk loading, and its range queries
count the node/entry work used by the performance model.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.spatial.bruteforce import count_in_boxes
from repro.spatial.geometry import QueryStats, Rect, query_bounds
from repro.util.validation import check_points, check_positive, require


#: query-by-entry cells one chunk of :meth:`RTree.profile` compares at a
#: level: each boolean array it holds is at most 1 MB.
_PROFILE_CELLS = 1 << 20


class _Node:
    __slots__ = ("leaf", "rects", "children", "indices", "_boxes")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.rects: list[Rect] = []
        self.children: list["_Node"] = []  # internal nodes only
        self.indices: list[int] = []  # leaf nodes only
        # (mins, maxs) of ``rects`` stacked into (count, d) arrays, built
        # on first use; whoever changes ``rects`` resets it to None.
        self._boxes: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def count(self) -> int:
        return len(self.rects)

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._boxes is None:
            self._boxes = (
                np.array([r.mins for r in self.rects]),
                np.array([r.maxs for r in self.rects]),
            )
        return self._boxes

    def mbr(self) -> Rect:
        mins, maxs = self.boxes()
        return Rect._trusted(mins.min(axis=0), maxs.max(axis=0))


class RTree:
    """An R-tree over points (degenerate rectangles at the leaves).

    Args:
        dims: dimensionality of indexed points.
        max_entries: node fan-out M (Guttman's ``M``).
        min_entries: minimum fill m (defaults to ``ceil(0.4 * M)``).
    """

    def __init__(self, dims: int, max_entries: int = 16, min_entries: Optional[int] = None):
        check_positive("dims", dims)
        require(max_entries >= 2, f"max_entries must be >= 2, got {max_entries}")
        self.dims = dims
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(1, math.ceil(0.4 * max_entries))
        )
        require(
            1 <= self.min_entries <= max_entries // 2,
            f"min_entries must be in [1, {max_entries // 2}]",
        )
        self.root = _Node(leaf=True)
        self._size = 0
        # STR packing legally leaves one trailing underfull node per level,
        # so the Guttman min-fill invariant is only checked for trees built
        # by dynamic insertion.
        self._bulk_loaded = False

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf root)."""
        h, node = 1, self.root
        while not node.leaf:
            h += 1
            node = node.children[0]
        return h

    # -- construction -------------------------------------------------------

    def insert(self, point, index: int) -> None:
        """Insert one point with its dataset index (Guttman's Insert)."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dims,):
            raise ValidationError(f"point must have shape ({self.dims},), got {p.shape}")
        if not np.isfinite(p).all():
            # A NaN would poison every bounding box above it and hide
            # the finite points beside it from every query.
            raise ValidationError(f"point contains non-finite values: {p.tolist()}")
        rect = Rect.from_point(p)
        split = self._insert(self.root, rect, index)
        if split is not None:
            old_root = self.root
            self.root = _Node(leaf=False)
            for child in (old_root, split):
                self.root.rects.append(child.mbr())
                self.root.children.append(child)
        self._size += 1

    @classmethod
    def bulk_load(
        cls, points: np.ndarray, max_entries: int = 16, min_entries: Optional[int] = None
    ) -> "RTree":
        """Sort-Tile-Recursive bulk load (the handout's build path)."""
        pts = check_points("points", points)
        tree = cls(pts.shape[1], max_entries, min_entries)
        leaves = tree._str_pack_leaves(pts)
        tree.root = tree._build_upward(leaves)
        tree._size = len(pts)
        tree._bulk_loaded = True
        return tree

    def _str_pack_leaves(self, pts: np.ndarray) -> list[_Node]:
        n, dims = pts.shape
        m = self.max_entries
        order = np.arange(n)
        # Recursive tiling over axes 0..dims-1.
        groups = self._str_tile(pts, order, axis=0, capacity=m)
        leaves = []
        for grp in groups:
            leaf = _Node(leaf=True)
            box = pts[grp]
            leaf.rects = [Rect._trusted(p, p) for p in box]
            leaf.indices = grp.tolist()
            leaf._boxes = (box, box)
            leaves.append(leaf)
        return leaves

    def _str_tile(
        self, pts: np.ndarray, order: np.ndarray, axis: int, capacity: int
    ) -> list[np.ndarray]:
        """Split ``order`` into runs of ≤ capacity, tiling axis by axis."""
        n = len(order)
        if n <= capacity:
            return [order]
        order = order[np.argsort(pts[order, axis], kind="stable")]
        if axis == pts.shape[1] - 1:
            return [order[i : i + capacity] for i in range(0, n, capacity)]
        pages = math.ceil(n / capacity)
        slabs = math.ceil(pages ** (1.0 / (pts.shape[1] - axis)))
        slab_size = math.ceil(n / slabs)
        out: list[np.ndarray] = []
        for i in range(0, n, slab_size):
            out.extend(self._str_tile(pts, order[i : i + slab_size], axis + 1, capacity))
        return out

    def _build_upward(self, nodes: list[_Node]) -> _Node:
        while len(nodes) > 1:
            parents: list[_Node] = []
            for i in range(0, len(nodes), self.max_entries):
                parent = _Node(leaf=False)
                for child in nodes[i : i + self.max_entries]:
                    parent.rects.append(child.mbr())
                    parent.children.append(child)
                parents.append(parent)
            nodes = parents
        return nodes[0]

    # -- Guttman insertion internals ----------------------------------------

    def _insert(self, node: _Node, rect: Rect, index: int) -> Optional[_Node]:
        """Insert into the subtree; returns a split sibling if it overflowed."""
        node._boxes = None
        if node.leaf:
            node.rects.append(rect)
            node.indices.append(index)
            if node.count > self.max_entries:
                return self._split(node)
            return None
        child_pos = self._choose_subtree(node, rect)
        split = self._insert(node.children[child_pos], rect, index)
        node.rects[child_pos] = node.children[child_pos].mbr()
        if split is not None:
            node.rects.append(split.mbr())
            node.children.append(split)
            if node.count > self.max_entries:
                return self._split(node)
        return None

    @staticmethod
    def _choose_subtree(node: _Node, rect: Rect) -> int:
        """Least-enlargement child (ties broken by smaller area)."""
        best, best_key = 0, None
        for i, r in enumerate(node.rects):
            key = (r.enlargement(rect), r.area)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: move some entries into a returned sibling."""
        rects = node.rects
        seed_a, seed_b = self._pick_seeds(rects)
        groups: tuple[list[int], list[int]] = ([seed_a], [seed_b])
        box = [rects[seed_a], rects[seed_b]]
        remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]
        while remaining:
            # If one group must take everything left to reach min fill, do so.
            for g in (0, 1):
                if len(groups[g]) + len(remaining) == self.min_entries:
                    groups[g].extend(remaining)
                    for i in remaining:
                        box[g] = box[g].union(rects[i])
                    remaining = []
                    break
            if not remaining:
                break
            # PickNext: entry with the greatest preference difference.
            best_i, best_pref, best_pos = None, -1.0, 0
            for pos, i in enumerate(remaining):
                d0 = box[0].enlargement(rects[i])
                d1 = box[1].enlargement(rects[i])
                pref = abs(d0 - d1)
                if pref > best_pref:
                    best_i, best_pref, best_pos = i, pref, pos
                    best_d = (d0, d1)
            remaining.pop(best_pos)
            g = 0 if best_d[0] < best_d[1] or (
                best_d[0] == best_d[1] and box[0].area <= box[1].area
            ) else 1
            groups[g].append(best_i)
            box[g] = box[g].union(rects[best_i])
        sibling = _Node(leaf=node.leaf)
        node._boxes = None
        keep, move = groups
        if node.leaf:
            new_rects = [rects[i] for i in keep]
            new_idx = [node.indices[i] for i in keep]
            sibling.rects = [rects[i] for i in move]
            sibling.indices = [node.indices[i] for i in move]
            node.rects, node.indices = new_rects, new_idx
        else:
            new_rects = [rects[i] for i in keep]
            new_children = [node.children[i] for i in keep]
            sibling.rects = [rects[i] for i in move]
            sibling.children = [node.children[i] for i in move]
            node.rects, node.children = new_rects, new_children
        return sibling

    @staticmethod
    def _pick_seeds(rects: list[Rect]) -> tuple[int, int]:
        """The pair wasting the most area if grouped together."""
        best = (0, 1)
        best_waste = -math.inf
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                waste = rects[i].union(rects[j]).area - rects[i].area - rects[j].area
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    # -- queries ---------------------------------------------------------------

    def query_range(self, rect: Rect, stats: Optional[QueryStats] = None) -> np.ndarray:
        """Indices of all points inside ``rect`` (inclusive bounds)."""
        if rect.dims != self.dims:
            raise ValidationError(f"query rect has {rect.dims} dims, index has {self.dims}")
        out: list[int] = []
        local = stats if stats is not None else QueryStats()
        lo, hi = rect.mins, rect.maxs
        if self._size:
            stack = [self.root]
            while stack:
                node = stack.pop()
                local.nodes_visited += 1
                local.entries_checked += node.count
                mins, maxs = node.boxes()
                if node.leaf:
                    # Leaf entries are points: test each one's mins.
                    hit = ((mins >= lo) & (mins <= hi)).all(axis=1)
                    out.extend(compress(node.indices, hit.tolist()))
                else:
                    hit = ((mins <= hi) & (maxs >= lo)).all(axis=1)
                    stack.extend(compress(node.children, hit.tolist()))
        local.results += len(out)
        return np.sort(np.asarray(out, dtype=np.int64))

    def profile(self, boxes) -> np.ndarray:
        """Per-query (matches, nodes visited, entries checked) of a
        ``(q, d, 2)`` array of interval boxes: what :meth:`query_range`
        returns and counts for each box, computed for many boxes at once.

        The tree is walked level by level for a chunk of queries: a
        child is visited if its parent was and its entry box intersects
        the query, and each visited node checks all its entries.  A
        point lies inside a box only if every box above it does (points
        are finite), so the matches are the brute-force counts over the
        leaves' points.
        """
        lo, hi = query_bounds(boxes, self.dims)
        out = np.zeros((len(lo), 3), dtype=np.int64)
        if not self._size:
            return out
        # Per depth: entry counts of its nodes, then the boxes of its
        # inner nodes' entries, one row per axis, with the position of
        # each entry's node; entry e's child is node e of the next depth.
        levels = []
        points = []
        nodes = [self.root]
        while nodes:
            counts = np.array([node.count for node in nodes], dtype=np.int64)
            points.extend(node.boxes()[0] for node in nodes if node.leaf)
            inner = [(k, node) for k, node in enumerate(nodes) if not node.leaf]
            nodes = [child for _, node in inner for child in node.children]
            if not inner:
                levels.append((counts, None, None, None))
                break
            levels.append((
                counts,
                np.concatenate([node.boxes()[0] for _, node in inner]).T.copy(),
                np.concatenate([node.boxes()[1] for _, node in inner]).T.copy(),
                np.repeat([k for k, _ in inner], [node.count for _, node in inner]),
            ))
        chunk = max(1, _PROFILE_CELLS // max(len(level[0]) for level in levels))
        for a in range(0, len(lo), chunk):
            qlo, qhi = lo[a : a + chunk, :, None], hi[a : a + chunk, :, None]
            visited = np.ones((len(qlo), 1), dtype=bool)
            for counts, mins, maxs, parent in levels:
                out[a : a + chunk, 1] += np.count_nonzero(visited, axis=1)
                out[a : a + chunk, 2] += visited.astype(np.int64) @ counts
                if parent is None:
                    break
                visited = visited[:, parent]
                for axis in range(self.dims):
                    visited &= mins[axis] <= qhi[:, axis]
                    visited &= maxs[axis] >= qlo[:, axis]
        out[:, 0] = count_in_boxes(np.concatenate(points), lo, hi)
        return out

    def query_knn(
        self, point, k: int, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Indices of the ``k`` nearest points (best-first branch and
        bound with the MINDIST bound — Roussopoulos et al. 1995, the
        k-NN search the paper cites as a Module 2 application)."""
        import heapq

        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dims,):
            raise ValidationError(f"query point must have {self.dims} dims")
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if self._size == 0:
            return np.empty(0, dtype=np.int64)
        k = min(k, self._size)
        local = stats if stats is not None else QueryStats()
        # Priority queue of (bound, tiebreak, is_leaf_entry, payload).
        counter = 0
        heap: list[tuple[float, int, bool, object]] = [(0.0, counter, False, self.root)]
        best: list[tuple[float, int]] = []  # (dist2, index), ascending
        while heap:
            bound, _, is_entry, payload = heapq.heappop(heap)
            if len(best) == k and bound > best[-1][0]:
                break
            if is_entry:
                dist2, idx = payload  # type: ignore[misc]
                best.append((dist2, idx))
                best.sort()
                if len(best) > k:
                    best.pop()
                continue
            node = payload
            local.nodes_visited += 1
            local.entries_checked += node.count
            if node.leaf:
                for rect, idx in zip(node.rects, node.indices):
                    delta = rect.mins - p
                    dist2 = float(np.dot(delta, delta))
                    counter += 1
                    heapq.heappush(heap, (dist2, counter, True, (dist2, idx)))
            else:
                for rect, child in zip(node.rects, node.children):
                    counter += 1
                    heapq.heappush(
                        heap, (rect.min_dist2(p), counter, False, child)
                    )
        local.results += len(best)
        # Ascending distance, ties by index (match the brute-force order).
        best.sort(key=lambda t: (t[0], t[1]))
        return np.array([idx for _, idx in best], dtype=np.int64)

    # -- invariants (used by tests) -----------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        if self._size == 0:
            return
        depths: set[int] = set()

        def walk(node: _Node, depth: int, bound: Optional[Rect]) -> int:
            assert node.count <= self.max_entries, "node overflow"
            if node is not self.root and not self._bulk_loaded:
                assert node.count >= self.min_entries, "node underflow"
            if node is not self.root:
                assert node.count >= 1, "empty node"
            count = 0
            if bound is not None:
                assert bound.contains_rect(node.mbr()), "child escapes parent MBR"
            if node.leaf:
                depths.add(depth)
                assert len(node.indices) == node.count
                return node.count
            assert len(node.children) == node.count
            for r, child in zip(node.rects, node.children):
                assert r.contains_rect(child.mbr()), "stale entry rect"
                count += walk(child, depth + 1, r)
            return count

        total = walk(self.root, 0, None)
        assert total == self._size, f"size mismatch: {total} != {self._size}"
        assert len(depths) == 1, "leaves at different depths"
