"""Tests for Module 4 — range queries, brute force vs R-tree."""

import pytest

from repro import smpi
from repro.cluster import ClusterSpec, Placement
from repro.errors import ValidationError
from repro.modules.module4_range import (
    build_index,
    operational_intensity_of,
    range_query_activity,
)
from repro.data import asteroid_catalog
from repro.spatial import QueryStats


def test_build_index_variants():
    pts = asteroid_catalog(200, seed=0).points
    for alg in ("brute", "rtree", "kdtree", "quadtree"):
        idx = build_index(pts, alg)
        assert len(idx) == 200
    with pytest.raises(ValidationError):
        build_index(pts, "btree")


@pytest.mark.parametrize("algorithm", ["brute", "rtree", "kdtree", "quadtree"])
def test_all_algorithms_agree_on_matches(algorithm):
    out = smpi.run(3, range_query_activity, n=3000, q=60, algorithm=algorithm, seed=1)
    brute = smpi.run(3, range_query_activity, n=3000, q=60, algorithm="brute", seed=1)
    assert out[0].global_matches == brute[0].global_matches


def test_queries_partitioned_across_ranks():
    out = smpi.run(4, range_query_activity, n=1000, q=62, algorithm="brute")
    assert sum(r.queries_answered for r in out) == 62
    assert out[0].global_matches == sum(r.local_matches for r in out)
    assert out[1].global_matches is None


def test_rtree_does_less_work_than_brute():
    out_r = smpi.run(1, range_query_activity, n=20_000, q=64, algorithm="rtree")
    out_b = smpi.run(1, range_query_activity, n=20_000, q=64, algorithm="brute")
    assert out_r[0].stats.entries_checked < out_b[0].stats.entries_checked / 10


def test_rtree_faster_in_absolute_virtual_time():
    """The module's efficiency lesson: the index wins outright (the
    build cost amortizes over a realistic query count)."""
    spec = ClusterSpec.monsoon_like(num_nodes=1)
    kw = dict(n=20_000, q=2048, cluster=spec, placement=Placement.block(spec, 4))
    t_rtree = smpi.launch(4, range_query_activity, algorithm="rtree", **kw).elapsed
    t_brute = smpi.launch(4, range_query_activity, algorithm="brute", **kw).elapsed
    assert t_rtree < t_brute / 2


def test_brute_scales_better_than_rtree():
    """The module's scalability lesson: the inefficient algorithm has
    the better speedup curve (compute-bound vs memory-bound)."""
    spec = ClusterSpec.monsoon_like(num_nodes=1)

    def speedup(algorithm):
        times = {}
        for p in (1, 16):
            times[p] = smpi.launch(
                p, range_query_activity, n=20_000, q=2048, algorithm=algorithm,
                cluster=spec, placement=Placement.block(spec, p),
            ).elapsed
        return times[1] / times[16]

    assert speedup("brute") > 10
    assert speedup("rtree") < 6


def test_two_nodes_beat_one_node_for_rtree():
    """Activity 3's intended discovery: aggregate memory bandwidth."""
    spec = ClusterSpec.monsoon_like(num_nodes=2)
    kw = dict(n=20_000, q=2048, algorithm="rtree", cluster=spec)
    packed = smpi.launch(
        16, range_query_activity, placement=Placement.spread(spec, 16, nodes=1), **kw
    ).elapsed
    spread = smpi.launch(
        16, range_query_activity, placement=Placement.spread(spec, 16, nodes=2), **kw
    ).elapsed
    assert spread < packed / 1.4


def test_brute_indifferent_to_node_count():
    """Compute-bound code gains nothing from extra nodes (at fixed p)."""
    spec = ClusterSpec.monsoon_like(num_nodes=2)
    kw = dict(n=10_000, q=64, algorithm="brute", cluster=spec)
    packed = smpi.launch(
        8, range_query_activity, placement=Placement.spread(spec, 8, nodes=1), **kw
    ).elapsed
    spread = smpi.launch(
        8, range_query_activity, placement=Placement.spread(spec, 8, nodes=2), **kw
    ).elapsed
    assert packed == pytest.approx(spread, rel=0.25)


def test_dedicated_vs_shared_asymmetry():
    """Activity 3 / the quiz's mechanism: a memory-hungry neighbour
    slows the memory-bound R-tree but not the compute-bound scan."""
    from repro.modules.module4_range import dedicated_vs_shared

    kw = dict(n=20_000, q=2048, neighbor_demand=16.0)
    rtree = dedicated_vs_shared(16, algorithm="rtree", **kw)
    brute = dedicated_vs_shared(16, algorithm="brute", **kw)
    assert rtree["slowdown"] > 1.3
    assert brute["slowdown"] < 1.1
    assert rtree["shared"] > rtree["dedicated"]


def test_operational_intensity_ordering():
    """The cost model's rooflines: brute sits far above the R-tree."""
    stats_b = QueryStats(nodes_visited=1, entries_checked=10_000)
    stats_r = QueryStats(nodes_visited=500, entries_checked=2_000)
    ai_b = operational_intensity_of("brute", stats_b, dims=2)
    ai_r = operational_intensity_of("rtree", stats_r, dims=2)
    assert ai_b > 10 * ai_r


def test_reduce_is_used():
    """Table II: MPI_Reduce is the required primitive for Module 4."""
    out = smpi.launch(3, range_query_activity, n=500, q=12, algorithm="rtree")
    assert "MPI_Reduce" in out.tracer.primitives_used()


def test_validation_of_sizes():
    with pytest.raises(ValidationError):
        smpi.run(1, range_query_activity, n=0, q=5)
    with pytest.raises(ValidationError):
        smpi.run(1, range_query_activity, n=10, q=0)


def test_query_profile_is_computed_once_across_ranks(monkeypatch):
    """16 ranks starting cold share one profile: the first rank profiles
    the q queries while the others wait for it, instead of each repeating
    them (a cold ``repro run E5`` would otherwise profile 16 x 4,096)."""
    import time

    from repro.modules import module4_range
    from repro.spatial import RTree

    monkeypatch.setattr(module4_range, "_INDEX_CACHE", {})
    calls = []
    profile = RTree.profile

    def spy(self, boxes):
        calls.append(len(boxes))
        time.sleep(0.05)  # widen the window in which other ranks arrive
        return profile(self, boxes)

    monkeypatch.setattr(RTree, "profile", spy)
    q = 48
    out = smpi.run(16, range_query_activity, n=2000, q=q, algorithm="rtree", seed=7)
    assert calls == [q]
    assert sum(r.queries_answered for r in out) == q
