"""Obs — the tracer's record path and its summary folded on read.

Tracing is on by default, so ``Tracer.record`` is on every message's
path: it is one ``list.extend`` of the event's fields onto a flat list,
with no lock, no aggregation and no per-event object left alive.
Readers pay instead: the first read builds the ``TraceEvent`` tuples of
the events recorded since the previous read, and ``Tracer.summary()``
folds every event when asked — a finished world is summarised once, so
no running aggregate is kept.  This benchmark measures both sides of
that trade on a large trace, plus the same fold written out by hand.
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
    """Whole-trace summary after the first read: the events are built,
    so each call is one full fold over them in record order."""
    s = benchmark(big_tracer.summary)
    assert s.messages_sent == sum(1 for i in range(N_EVENTS) if i % 3)
    assert s.primitive_counts["MPI_Send"] == s.messages_sent


def test_summary_matches_full_recompute(benchmark, big_tracer):
    """The same fold over ``Tracer.events``, written out by hand."""

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
    """Per-event record cost: one flat ``list.extend``, no summary work.
    The first read afterwards builds and folds the whole batch."""
    tracer = Tracer()

    def record_batch():
        for i in range(1000):
            tracer.record(0, "p2p", "MPI_Send", 64, i * 1.0, i + 0.5,
                          peer=1, cid=0, msg_id=i)

    benchmark.pedantic(record_batch, rounds=5, iterations=1)
    n = len(tracer)  # 5 rounds, or 1 under --benchmark-disable
    assert n >= 1000 and n % 1000 == 0
    s = tracer.summary()
    assert s.messages_sent == n
    assert s.bytes_sent == 64 * n
