"""Obs — the tracer's incremental-summary hot path.

``Tracer.summary()`` is called on hot paths (progress displays, adaptive
benchmarks), so it is maintained incrementally at record time instead of
rescanning the event list.  This benchmark measures both sides of that
trade on a large trace: the O(1) whole-trace summary must not scale with
the event count, while ``record()`` stays cheap enough that maintaining
the aggregate is free in practice.
"""

import pytest

from repro.smpi.trace import TraceSummary, Tracer

N_EVENTS = 50_000


@pytest.fixture(scope="module")
def big_tracer():
    tracer = Tracer()
    for i in range(N_EVENTS):
        rank = i % 16
        if i % 3 == 0:
            tracer.record(rank, "compute", "compute", 4096, i * 1.0, i + 0.7)
        else:
            tracer.record(
                rank, "p2p", "MPI_Send", 8192, i * 1.0, i + 0.4,
                peer=(rank + 1) % 16, cid=0, msg_id=i,
            )
    return tracer


def test_summary_hot_path(benchmark, big_tracer):
    """Whole-trace summary: O(1) copy of the incremental aggregate."""
    s = benchmark(big_tracer.summary)
    assert s.messages_sent == sum(1 for i in range(N_EVENTS) if i % 3)
    assert s.primitive_counts["MPI_Send"] == s.messages_sent


def test_summary_matches_full_recompute(benchmark, big_tracer):
    """The recompute path the incremental aggregate replaced (for scale)."""

    def recompute():
        out = TraceSummary()
        for e in big_tracer.events:
            out._add(e)
        return out

    slow = benchmark.pedantic(recompute, rounds=3, iterations=1)
    fast = big_tracer.summary()
    assert slow.bytes_sent == fast.bytes_sent
    assert slow.compute_time == pytest.approx(fast.compute_time)
    assert slow.primitive_counts == fast.primitive_counts


def test_record_overhead(benchmark):
    """Per-event record cost with the aggregate maintenance folded in."""
    tracer = Tracer()

    def record_batch():
        for i in range(1000):
            tracer.record(0, "p2p", "MPI_Send", 64, i * 1.0, i + 0.5,
                          peer=1, cid=0, msg_id=i)

    benchmark.pedantic(record_batch, rounds=5, iterations=1)
    assert tracer.summary().messages_sent >= 1000
