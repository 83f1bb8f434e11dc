"""The R-tree's cached node boxes give the same answers and the same work
counters as a per-entry scan.

Nodes keep their entry boxes stacked in arrays that queries and ``mbr()``
read; every insert and split must drop them.  These tests interleave
inserts with queries so that a stale box would show, compare every
answer with brute force, and pin the per-query work counters of the E4
catalog to digests recorded with the per-entry implementation.
"""

import functools
import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import asteroid_catalog, asteroid_query_boxes
from repro.spatial import QueryStats, Rect, RTree


def _brute(pts, rect):
    return np.flatnonzero(rect.contains_points(pts)).astype(np.int64)


def _check_boxes(tree):
    """Every node's mbr() is the fold of its entries' unions."""
    stack = [tree.root] if len(tree) else []
    while stack:
        node = stack.pop()
        folded = functools.reduce(Rect.union, node.rects)
        assert node.mbr() == folded
        stack.extend(node.children)


@st.composite
def insert_query_script(draw):
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    bulk = draw(st.integers(min_value=0, max_value=60))
    steps = draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=12)
    )
    n = bulk + sum(steps)
    pts = rng.uniform(-10, 10, size=(max(n, 1), 2))
    lows = rng.uniform(-12, 8, size=(len(steps), 2))
    rects = [Rect(lo, lo + rng.uniform(0, 10, size=2)) for lo in lows]
    return pts, bulk, steps, rects


@settings(max_examples=30, deadline=None)
@given(insert_query_script(), st.sampled_from([4, 5, 8]))
def test_interleaved_inserts_and_queries_equal_brute(script, max_entries):
    pts, bulk, steps, rects = script
    if bulk:
        tree = RTree.bulk_load(pts[:bulk], max_entries=max_entries)
    else:
        tree = RTree(dims=2, max_entries=max_entries)
    size = bulk
    for step, rect in zip(steps, rects):
        for i in range(size, size + step):
            tree.insert(pts[i], i)
        size += step
        assert np.array_equal(tree.query_range(rect), _brute(pts[:size], rect))
        tree.validate()
        _check_boxes(tree)


def _profile_digest(tree, boxes, every=None, insert=None):
    """sha256 over each query's answer and (nodes, entries, results).

    With ``insert``, ``insert(k)`` runs before every ``every``-th query.
    """
    h = hashlib.sha256()
    total = QueryStats()
    for k, box in enumerate(boxes):
        if insert is not None and k % every == 0:
            insert(k // every)
        stats = QueryStats()
        found = tree.query_range(Rect.from_intervals(box), stats)
        h.update(found.tobytes())
        h.update(f"{stats.nodes_visited},{stats.entries_checked},{stats.results};".encode())
        total.add(stats)
    return h.hexdigest(), total


def test_e4_catalog_profile_is_pinned():
    """E4's build: 50k points, STR bulk load, fan-out 16, 256 boxes."""
    pts = asteroid_catalog(50_000, seed=0).points
    boxes = asteroid_query_boxes(256, seed=0)
    tree = RTree.bulk_load(pts, max_entries=16)
    digest, total = _profile_digest(tree, boxes)
    assert total == QueryStats(nodes_visited=14423, entries_checked=229136, results=124865)
    assert digest == "9cb5e085ad0e3f7e63b5cc10e0a04c7bb9a26d5ac663b4afd364e9013f9c39da"


def test_interleaved_profile_is_pinned():
    """A bulk-loaded tree grown by inserts between queries, and a tree
    built by inserts alone: answers and work counters are pinned."""
    pts = asteroid_catalog(50_000, seed=0).points[:1600]
    boxes = asteroid_query_boxes(256, seed=0)

    bulk = RTree.bulk_load(pts[:800], max_entries=8)

    def grow_bulk(chunk):
        for i in range(800 + 50 * chunk, 800 + 50 * (chunk + 1)):
            bulk.insert(pts[i], i)

    digest, total = _profile_digest(bulk, boxes, every=16, insert=grow_bulk)
    bulk.validate()
    assert (digest, total) == PINNED_BULK

    dynamic = RTree(dims=2, max_entries=4)

    def grow_dynamic(chunk):
        for i in range(100 * chunk, 100 * (chunk + 1)):
            dynamic.insert(pts[i], i)

    digest, total = _profile_digest(dynamic, boxes, every=16, insert=grow_dynamic)
    dynamic.validate()
    assert (digest, total) == PINNED_DYNAMIC


#: recorded with the per-entry query loop that preceded the node-box cache.
PINNED_BULK = (
    "decdb2fcfbca887fee39ace57b1866f1d8028872f0898db44f0c1904d6f1dd3a",
    QueryStats(nodes_visited=2911, entries_checked=17409, results=3159),
)
PINNED_DYNAMIC = (
    "1b63fa2512bd4febcaecd7bf3719d3bde35e384fa99acbebcff8d52983cbf304",
    QueryStats(nodes_visited=5618, entries_checked=17248, results=2253),
)
