"""Set-associative LRU cache simulator and an analytic miss model.

Module 2 asks students to measure cache-miss rates of a row-wise vs a
tiled distance-matrix traversal with a performance tool (``perf``).  Our
substitute is :class:`CacheSim`: the kernels in
:mod:`repro.modules.module2` emit their real access traces at cache-line
granularity and the simulator counts hits and misses, which measures the
same reuse the hardware counters would.

:func:`analytic_distance_matrix_misses` is the closed-form model the
module's discussion derives; tests cross-validate it against the
simulator so students (and we) can trust both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class CacheStats:
    """Access counters of a :class:`CacheSim`."""

    accesses: int
    hits: int
    misses: int

    @property
    def miss_rate(self) -> float:
        """Misses per access; 0.0 for an untouched cache."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0


class CacheSim:
    """A set-associative LRU cache with a line-granularity interface.

    Args:
        size_bytes: total capacity.
        line_bytes: cache-line size.
        ways: associativity (``ways >= size/line`` means fully
            associative; ``ways == 1`` is direct mapped).

    Addresses are byte addresses; :meth:`access` maps them to lines,
    :meth:`access_lines` takes pre-computed line indices (faster when the
    caller already works in lines).
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        check_positive("size_bytes", size_bytes)
        check_positive("line_bytes", line_bytes)
        check_positive("ways", ways)
        if size_bytes % (line_bytes * ways) != 0:
            raise ValidationError(
                f"size_bytes={size_bytes} is not a multiple of line_bytes*ways="
                f"{line_bytes * ways}"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        # One insertion-ordered dict per set, used as its LRU list: the
        # first key is the least recently used line.
        self._sets: list[dict[int, None]] = [{} for _ in range(self.num_sets)]
        self._hits = 0
        self._misses = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            accesses=self._hits + self._misses, hits=self._hits, misses=self._misses
        )

    def reset_stats(self) -> None:
        """Zero the counters without flushing cache contents."""
        self._hits = 0
        self._misses = 0

    def flush(self) -> None:
        """Invalidate every line and zero the counters."""
        for lru in self._sets:
            lru.clear()
        self.reset_stats()

    def access(self, addresses: np.ndarray | list[int]) -> int:
        """Access byte ``addresses`` in order; returns misses incurred."""
        addr = np.asarray(addresses, dtype=np.int64)
        return self.access_lines(addr // self.line_bytes)

    def access_lines(self, lines: np.ndarray | list[int]) -> int:
        """Access cache ``lines`` in order; returns misses incurred."""
        lines_arr = np.asarray(lines, dtype=np.int64)
        if lines_arr.ndim != 1:
            lines_arr = lines_arr.ravel()
        if lines_arr.size and lines_arr.min() < 0:
            raise ValidationError("negative line index in access trace")
        sets, num_sets, ways = self._sets, self.num_sets, self.ways
        misses = 0
        for line in lines_arr.tolist():
            lru = sets[line % num_sets]
            if line in lru:
                del lru[line]  # re-inserted below as most recently used
            else:
                misses += 1
                if len(lru) == ways:
                    del lru[next(iter(lru))]
            lru[line] = None
        self._hits += lines_arr.size - misses
        self._misses += misses
        return misses

    def contains_line(self, line: int) -> bool:
        """True when ``line`` is currently resident (no counter update)."""
        return line in self._sets[line % self.num_sets]


def lines_of_slice(base_addr: int, nbytes: int, line_bytes: int = 64) -> np.ndarray:
    """Cache lines touched by a contiguous ``nbytes`` read at ``base_addr``."""
    check_positive("nbytes", nbytes)
    first = base_addr // line_bytes
    last = (base_addr + nbytes - 1) // line_bytes
    return np.arange(first, last + 1, dtype=np.int64)


def analytic_distance_matrix_misses(
    n: int,
    dims: int,
    cache_bytes: int,
    *,
    line_bytes: int = 64,
    itemsize: int = 8,
    tile: int | None = None,
    occupancy: float = 0.75,
) -> int:
    """Closed-form cache-miss estimate for the Module 2 kernels.

    A dataset of ``n`` points × ``dims`` doubles is scanned as
    ``for i: for j: dist(i, j)`` (``tile=None``, row-wise) or with the
    inner ``j`` loop blocked into tiles of ``tile`` points.

    ``occupancy`` is the fraction of the cache usable for the streamed
    ``j`` points before conflict/interference evictions start (points,
    loop state and the ``i`` point compete for sets).
    """
    check_positive("n", n)
    check_positive("dims", dims)
    check_positive("cache_bytes", cache_bytes)
    point_bytes = dims * itemsize
    lines_per_point = int(np.ceil(point_bytes / line_bytes))
    usable = cache_bytes * occupancy
    if tile is None:
        if n * point_bytes <= usable:
            # Everything fits: compulsory misses only.
            return (n + n) * lines_per_point
        # Inner loop streams all n points every row; i-point stays cached.
        return n * lines_per_point + n * n * lines_per_point
    check_positive("tile", tile)
    if tile * point_bytes > usable:
        # Tile overflows the cache: behaves like row-wise.
        return analytic_distance_matrix_misses(
            n, dims, cache_bytes, line_bytes=line_bytes, itemsize=itemsize,
            tile=None, occupancy=occupancy,
        )
    ntiles = int(np.ceil(n / tile))
    # Per tile: load the tile once (tile*Lp) then stream every i (n*Lp).
    return ntiles * tile * lines_per_point + ntiles * n * lines_per_point
