"""Tests for the cache simulator and the analytic miss model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.cluster import CacheSim, analytic_distance_matrix_misses
from repro.cluster.memory import CacheStats
from repro.cluster.memory import lines_of_slice


def test_cold_misses():
    c = CacheSim(size_bytes=1024, line_bytes=64, ways=2)
    misses = c.access_lines([0, 1, 2, 3])
    assert misses == 4
    assert c.stats.misses == 4
    assert c.stats.hits == 0


def test_hits_on_reuse():
    c = CacheSim(size_bytes=1024, line_bytes=64, ways=2)
    c.access_lines([0, 1, 0, 1, 0])
    assert c.stats.hits == 3
    assert c.stats.misses == 2


def test_lru_eviction():
    # 1 set, 2 ways: lines 0,1 fit; line 2 evicts LRU (0).
    c = CacheSim(size_bytes=128, line_bytes=64, ways=2)
    assert c.num_sets == 1
    c.access_lines([0, 1, 2])  # 2 evicts 0
    assert c.contains_line(1) and c.contains_line(2)
    assert not c.contains_line(0)
    c.access_lines([0])  # miss again
    assert c.stats.misses == 4


def test_lru_order_updates_on_hit():
    c = CacheSim(size_bytes=128, line_bytes=64, ways=2)
    c.access_lines([0, 1, 0, 2])  # hit on 0 makes 1 the LRU victim
    assert c.contains_line(0) and c.contains_line(2)
    assert not c.contains_line(1)


def test_set_mapping():
    c = CacheSim(size_bytes=256, line_bytes=64, ways=1)  # 4 direct-mapped sets
    c.access_lines([0, 4])  # same set, direct mapped: conflict
    assert not c.contains_line(0)
    c.access_lines([1])  # different set: no conflict with 4
    assert c.contains_line(4) and c.contains_line(1)


def test_access_bytes_to_lines():
    c = CacheSim(size_bytes=1024, line_bytes=64, ways=2)
    c.access([0, 63, 64])  # two lines
    assert c.stats.misses == 2
    assert c.stats.hits == 1


def test_miss_rate():
    c = CacheSim(size_bytes=1024, line_bytes=64, ways=2)
    assert c.stats.miss_rate == 0.0
    c.access_lines([0, 0])
    assert c.stats.miss_rate == pytest.approx(0.5)
    assert c.stats.hit_rate == pytest.approx(0.5)


def test_flush_and_reset():
    c = CacheSim(size_bytes=1024, line_bytes=64, ways=2)
    c.access_lines([0, 1])
    c.reset_stats()
    assert c.stats.accesses == 0
    assert c.contains_line(0)  # contents preserved
    c.flush()
    assert not c.contains_line(0)


def test_bad_geometry_rejected():
    with pytest.raises(ValidationError):
        CacheSim(size_bytes=1000, line_bytes=64, ways=3)


def test_negative_line_rejected():
    c = CacheSim(size_bytes=1024, line_bytes=64, ways=2)
    with pytest.raises(ValidationError):
        c.access_lines([-1])


def test_lines_of_slice():
    lines = lines_of_slice(base_addr=0, nbytes=720, line_bytes=64)
    assert len(lines) == 12  # 720 B spans 12 lines from offset 0
    lines = lines_of_slice(base_addr=60, nbytes=8, line_bytes=64)
    assert len(lines) == 2  # straddles a boundary


def test_analytic_rowwise_vs_tiled():
    # 4096 x 90-d doubles = 2.9 MB, decisively overflowing a 1 MiB cache.
    n, d, cache = 4096, 90, 1 << 20
    row = analytic_distance_matrix_misses(n, d, cache)
    tiled = analytic_distance_matrix_misses(n, d, cache, tile=512)
    assert tiled < row / 100  # tiling wins by orders of magnitude


def test_analytic_tile_too_large_degrades():
    n, d, cache = 4096, 90, 1 << 16
    huge_tile = analytic_distance_matrix_misses(n, d, cache, tile=4096)
    row = analytic_distance_matrix_misses(n, d, cache)
    assert huge_tile == row


def test_analytic_small_dataset_compulsory_only():
    n, d = 16, 8
    misses = analytic_distance_matrix_misses(n, d, cache_bytes=1 << 20)
    assert misses == 2 * n * int(np.ceil(d * 8 / 64))


def test_simulator_agrees_with_analytic_rowwise_order_of_magnitude():
    """The analytic model should track the simulator within ~2x for a
    dataset that decisively overflows the cache (row-wise traversal)."""
    n, d = 64, 16  # point = 128 B = 2 lines; dataset 8 KiB >> 2 KiB cache
    cache = CacheSim(size_bytes=2048, line_bytes=64, ways=4)
    lines_per_point = 2
    for i in range(n):
        for j in range(n):
            cache.access_lines(
                list(range(i * lines_per_point, (i + 1) * lines_per_point))
                + list(range((n + j) * lines_per_point, (n + j + 1) * lines_per_point))
            )
    predicted = analytic_distance_matrix_misses(n, d, 2048)
    measured = cache.stats.misses
    assert 0.5 < measured / predicted < 2.0


class _NumpyAgesLRU:
    """Reference LRU: a tag and an age per way, the victim is the way
    with the smallest age (empty ways have age 0, so they fill first)."""

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        self.ages = np.zeros((num_sets, ways), dtype=np.int64)
        self.clock = self.hits = self.misses = 0

    def access_lines(self, lines) -> int:
        before = self.misses
        for line in lines:
            self.clock += 1
            s = line % self.num_sets
            hit_ways = np.where(self.tags[s] == line)[0]
            if hit_ways.size:
                self.ages[s, hit_ways[0]] = self.clock
                self.hits += 1
            else:
                victim = int(np.argmin(self.ages[s]))
                self.tags[s, victim] = line
                self.ages[s, victim] = self.clock
                self.misses += 1
        return self.misses - before

    def contains_line(self, line: int) -> bool:
        return bool((self.tags[line % self.num_sets] == line).any())


@settings(max_examples=60, deadline=None)
@given(
    ways=st.sampled_from([1, 2, 4, 8]),
    num_sets=st.sampled_from([1, 2, 3, 8]),
    calls=st.lists(
        st.lists(st.integers(min_value=0, max_value=40), max_size=30), max_size=6
    ),
)
def test_cache_sim_matches_numpy_ages_reference(ways, num_sets, calls):
    line_bytes = 64
    sim = CacheSim(size_bytes=num_sets * ways * line_bytes, line_bytes=line_bytes, ways=ways)
    ref = _NumpyAgesLRU(num_sets, ways)
    assert sim.num_sets == num_sets
    for lines in calls:
        assert sim.access_lines(lines) == ref.access_lines(lines)
        assert sim.stats == CacheStats(ref.hits + ref.misses, ref.hits, ref.misses)
        for line in range(41):
            assert sim.contains_line(line) == ref.contains_line(line)
