"""Whole-batch query profiles equal one ``query_range`` per box.

``BruteForceIndex.profile`` counts matches over x-slabs of a sorted copy
and ``RTree.profile`` walks the tree level by level for many boxes at
once.  Each per-query (matches, nodes visited, entries checked) must be
what the per-query loop below (the loop Module 4 ran before) counts: on
E4's full catalog, and on random catalogs with duplicate coordinates,
points on box bounds, zero-width boxes and NaN bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import asteroid_catalog, asteroid_query_boxes
from repro.errors import ValidationError
from repro.spatial import BruteForceIndex, KDTree, QuadTree, QueryStats, Rect, RTree


def per_query_profile(index, boxes):
    """The oracle: ``(q, 3)`` of (matches, nodes, entries), one query at a time."""
    profile = np.empty((len(boxes), 3), dtype=np.int64)
    for i, box in enumerate(boxes):
        stats = QueryStats()
        found = index.query_range(Rect.from_intervals(box), stats)
        profile[i] = (len(found), stats.nodes_visited, stats.entries_checked)
    return profile


@pytest.fixture(scope="module")
def e4_inputs():
    return asteroid_catalog(50_000, seed=0).points, asteroid_query_boxes(4096, seed=0)


@pytest.mark.parametrize("make", [BruteForceIndex, lambda pts: RTree.bulk_load(pts, max_entries=16)],
                         ids=["brute", "rtree"])
def test_e4_catalog_profile_equals_per_query_loop(e4_inputs, make):
    pts, boxes = e4_inputs
    index = make(pts)
    got = index.profile(boxes)
    assert got.dtype == np.int64 and got.shape == (4096, 3)
    assert int(got[:, 0].sum()) == 1_824_307
    assert np.array_equal(got, per_query_profile(index, boxes))


#: coordinates drawn from a small grid, so that points repeat, share x
#: values and sit exactly on box bounds; -0.0 equals 0.0.
GRID = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]


@st.composite
def catalog_and_boxes(draw):
    dims = draw(st.integers(1, 3))
    n = draw(st.integers(1, 120))
    coord = st.sampled_from(GRID) | st.floats(-3, 3, allow_nan=False)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=dims, max_size=dims),
                                 min_size=n, max_size=n)))
    bound = st.sampled_from(GRID + [float("nan")]) | st.floats(-3, 3, allow_nan=False)
    boxes = []
    for _ in range(draw(st.integers(1, 24))):
        box = []
        for _axis in range(dims):
            a, b = draw(bound), draw(bound)
            if draw(st.booleans()):
                b = a  # zero width
            # NaN never compares greater, so such a box is accepted.
            box.append((a, b) if not a > b else (b, a))
        boxes.append(box)
    return pts, np.array(boxes, dtype=np.float64).reshape(len(boxes), dims, 2)


def _rtree(pts, build, max_entries):
    if build == "bulk":
        return RTree.bulk_load(pts, max_entries=max_entries)
    if build == "inserts":
        tree = RTree(dims=pts.shape[1], max_entries=max_entries)
        start = 0
    else:  # half bulk-loaded, the rest inserted
        start = len(pts) // 2
        if start == 0:
            tree = RTree(dims=pts.shape[1], max_entries=max_entries)
        else:
            tree = RTree.bulk_load(pts[:start], max_entries=max_entries)
    for i in range(start, len(pts)):
        tree.insert(pts[i], i)
    tree.validate()
    return tree


@settings(max_examples=60, deadline=None)
@given(
    catalog_and_boxes(),
    st.sampled_from(["bulk", "inserts", "mixed"]),
    st.sampled_from([4, 5, 8, 16]),
)
def test_random_profiles_equal_per_query_loop(inputs, build, max_entries):
    pts, boxes = inputs
    brute = BruteForceIndex(pts)
    want = per_query_profile(brute, boxes)
    assert np.array_equal(brute.profile(boxes), want)
    tree = _rtree(pts, build, max_entries)
    got = tree.profile(boxes)
    assert np.array_equal(got, per_query_profile(tree, boxes))
    assert np.array_equal(got[:, 0], want[:, 0])


def test_empty_rtree_profile_is_zero():
    boxes = np.array([[[0.0, 1.0], [0.0, 1.0]]])
    assert np.array_equal(RTree(dims=2).profile(boxes), np.zeros((1, 3), dtype=np.int64))


def test_kdtree_and_quadtree_profile_per_query():
    pts = asteroid_catalog(2_000, seed=3).points
    boxes = asteroid_query_boxes(32, seed=3)
    for index in (KDTree(pts, leaf_size=8), QuadTree.from_points(pts, capacity=8)):
        assert np.array_equal(index.profile(boxes), per_query_profile(index, boxes))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_rtree_insert_rejects_non_finite_points(bad):
    """A NaN point would poison the bounding boxes above it and hide its
    finite neighbours from queries; bulk loading already refuses one."""
    tree = RTree(dims=2)
    with pytest.raises(ValidationError):
        tree.insert([0.0, bad], 0)
    with pytest.raises(ValidationError):
        RTree.bulk_load(np.array([[0.0, bad]]))
    assert len(tree) == 0


@pytest.mark.parametrize("index", [BruteForceIndex(np.zeros((3, 2))),
                                   RTree.bulk_load(np.zeros((3, 2)))])
def test_profile_checks_its_boxes(index):
    with pytest.raises(ValidationError):
        index.profile(np.zeros((4, 3, 2)))  # wrong dims
    with pytest.raises(ValidationError):
        index.profile(np.array([[[1.0, 0.0], [0.0, 1.0]]]))  # lo > hi
