"""Tracer: primitive recording, time breakdown, volumes."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import smpi
from repro.smpi.trace import TraceEvent, Tracer, TraceSummary
from repro.smpi import trace as trace_mod


def test_primitives_recorded():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, dest=1)
            req = comm.isend(2, dest=1, tag=1)
            req.wait()
        else:
            comm.recv(source=0)
            comm.recv(source=0, tag=1)
        comm.barrier()
        comm.allreduce(1, op=smpi.SUM)

    out = smpi.launch(2, fn)
    prims = out.tracer.primitives_used()
    assert {"MPI_Send", "MPI_Isend", "MPI_Recv", "MPI_Barrier", "MPI_Allreduce"} <= prims


def test_per_rank_primitives():
    def fn(comm):
        if comm.rank == 0:
            comm.send("x", dest=1)
        else:
            comm.recv(source=0)

    out = smpi.launch(2, fn)
    assert "MPI_Send" in out.tracer.primitives_used(rank=0)
    assert "MPI_Send" not in out.tracer.primitives_used(rank=1)
    assert "MPI_Recv" in out.tracer.primitives_used(rank=1)


def test_compute_vs_comm_breakdown():
    def fn(comm):
        comm.compute(seconds=2.0)
        comm.allreduce(np.zeros(1000), op=smpi.SUM)

    out = smpi.launch(2, fn)
    s = out.tracer.summary(rank=0)
    assert s.compute_time == pytest.approx(2.0)
    assert s.collective_time > 0
    assert 0 < s.comm_fraction < 0.5


def test_bytes_sent_accounting():
    def fn(comm):
        if comm.rank == 0:
            comm.send(np.zeros(100), dest=1)  # 800 bytes
        else:
            comm.recv(source=0)

    out = smpi.launch(2, fn)
    s = out.tracer.summary(rank=0)
    assert s.bytes_sent == 800
    assert s.messages_sent == 1


def test_trace_disabled():
    def fn(comm):
        comm.barrier()

    out = smpi.launch(2, fn, trace=False)
    assert out.tracer.events == []


def test_summary_primitive_counts():
    def fn(comm):
        for _ in range(3):
            comm.barrier()

    out = smpi.launch(2, fn)
    s = out.tracer.summary()
    assert s.primitive_counts["MPI_Barrier"] == 6  # 3 calls x 2 ranks


def test_concurrent_record_loses_no_events():
    """N rank threads hammer one tracer; every event must survive into
    the events and the summary."""
    tracer = Tracer()
    n_ranks, n_events = 8, 500
    barrier = threading.Barrier(n_ranks)

    def worker(rank):
        barrier.wait()  # maximize interleaving
        for i in range(n_events):
            tracer.record(rank, "p2p", "MPI_Send", 8, float(i), i + 0.5,
                          peer=(rank + 1) % n_ranks, cid=0, msg_id=rank * n_events + i)
            tracer.record(rank, "compute", "compute", 0, i + 0.5, i + 1.0)

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(n_ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tracer) == n_ranks * n_events * 2
    s = tracer.summary()
    assert s.messages_sent == n_ranks * n_events
    assert s.bytes_sent == 8 * n_ranks * n_events
    assert s.primitive_counts["MPI_Send"] == n_ranks * n_events
    assert s.compute_time == pytest.approx(0.5 * n_ranks * n_events)
    for rank in range(n_ranks):
        assert len(list(tracer.events_for(rank))) == n_events * 2
    assert len({e.msg_id for e in tracer.events if e.msg_id >= 0}) == n_ranks * n_events


def test_incremental_summary_matches_recompute():
    """The whole-trace summary equals an event-list recompute."""

    def fn(comm):
        comm.compute(seconds=0.1)
        if comm.rank == 0:
            comm.send(np.zeros(64), dest=1)
        else:
            comm.recv(source=0)
        comm.allreduce(1, op=smpi.SUM)

    out = smpi.launch(2, fn)
    fast = out.tracer.summary()
    slow = smpi.trace.TraceSummary()
    for e in out.tracer.events:
        slow._add(e)
    assert fast.compute_time == pytest.approx(slow.compute_time)
    assert fast.p2p_time == pytest.approx(slow.p2p_time)
    assert fast.collective_time == pytest.approx(slow.collective_time)
    assert fast.bytes_sent == slow.bytes_sent
    assert fast.messages_sent == slow.messages_sent
    assert fast.primitive_counts == slow.primitive_counts


def test_summary_copy_is_isolated():
    tracer = Tracer()
    tracer.record(0, "p2p", "MPI_Send", 4, 0.0, 1.0)
    snap = tracer.summary()
    tracer.record(0, "p2p", "MPI_Send", 4, 1.0, 2.0)
    assert snap.messages_sent == 1
    assert snap.primitive_counts["MPI_Send"] == 1
    assert tracer.summary().messages_sent == 2


def test_clear_resets_incremental_summary():
    tracer = Tracer()
    tracer.record(0, "compute", "compute", 0, 0.0, 1.0)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.summary().total_time == 0.0
    assert tracer.primitives_used() == set()


def test_p2p_events_carry_peer_cid_msgid():
    def fn(comm):
        if comm.rank == 0:
            comm.send(np.zeros(10), dest=1)
        else:
            comm.recv(source=0)

    out = smpi.launch(2, fn)
    (send,) = [e for e in out.tracer.events if e.primitive == "MPI_Send"]
    (recv,) = [e for e in out.tracer.events if e.primitive == "MPI_Recv"]
    assert send.peer == 1 and recv.peer == 0
    assert send.cid == recv.cid == 0
    assert send.msg_id == recv.msg_id >= 0


def test_collective_events_carry_root_and_cid():
    def fn(comm):
        comm.reduce(comm.rank, op=smpi.SUM, root=1)

    out = smpi.launch(3, fn)
    reduces = [e for e in out.tracer.events if e.primitive == "MPI_Reduce"]
    assert len(reduces) == 3
    for e in reduces:
        assert e.peer == 1  # the root's world rank
        assert e.cid == 0


def test_events_have_monotone_times():
    def fn(comm):
        comm.compute(seconds=1.0)
        comm.allreduce(1, op=smpi.SUM)
        comm.compute(seconds=0.5)

    out = smpi.launch(2, fn)
    for rank in range(2):
        events = sorted(out.tracer.events_for(rank), key=lambda e: e.t_start)
        for a, b in zip(events, events[1:]):
            assert a.t_end <= b.t_start + 1e-12
        for e in events:
            assert e.duration >= 0


# -- the lock-free recorder and the summary folded on read -------------------

_records = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(["compute", "p2p", "collective", "fault"]),
        st.sampled_from(["compute", "MPI_Send", "MPI_Isend", "MPI_Recv", "MPI_Bcast"]),
        st.integers(0, 1 << 16),
        st.floats(0.0, 1e3, allow_nan=False),
        st.floats(0.0, 1e3, allow_nan=False),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(records=_records, reads=st.sets(st.integers(0, 80)))
def test_folded_summary_equals_eager_fold_exactly(records, reads):
    """Reading the summary at any points between records never changes
    the result: it is the eager left-to-right ``_add`` fold, floats
    compared with ``==``."""
    tracer = Tracer()
    eager = TraceSummary()
    for i, rec in enumerate(records):
        if i in reads:
            assert tracer.summary() == eager
            assert tracer.primitives_used() == set(eager.primitive_counts)
        tracer.record(*rec)
        eager._add(TraceEvent(*rec))
    assert tracer.summary() == eager  # dataclass ==: float sums compared exactly


def test_summary_readers_racing_recorders_lose_and_double_count_nothing():
    tracer = Tracer()
    n_ranks, n_events = 8, 5000
    start = threading.Barrier(n_ranks + 2)
    done = threading.Event()
    seen: list[list[int]] = [[], []]

    def recorder(rank):
        start.wait()
        for i in range(n_events):
            tracer.record(rank, "p2p", "MPI_Send", 8, 0.0, 0.5, msg_id=i)

    def reader(out):
        start.wait()
        while not done.is_set():
            out.append(tracer.summary().messages_sent)
            tracer.primitives_used()

    readers = [threading.Thread(target=reader, args=(out,)) for out in seen]
    recorders = [threading.Thread(target=recorder, args=(r,)) for r in range(n_ranks)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, so reads land mid-record
    try:
        for t in readers + recorders:
            t.start()
        for t in recorders:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + recorders)
    total = n_ranks * n_events
    s = tracer.summary()
    assert len(tracer) == total
    assert s.messages_sent == total == s.primitive_counts["MPI_Send"]
    assert s.bytes_sent == 8 * total
    assert s.p2p_time == 0.5 * total  # exact: every partial sum is representable
    for counts in seen:
        assert counts == sorted(counts) and all(0 <= n <= total for n in counts)


def test_trace_event_is_immutable():
    e = TraceEvent(0, "p2p", "MPI_Send", 8, 0.0, 1.0)
    with pytest.raises(AttributeError):
        e.rank = 1
    with pytest.raises(AttributeError):
        e.t_end = 2.0
    assert hash(e) == hash(TraceEvent(0, "p2p", "MPI_Send", 8, 0.0, 1.0))


def test_trace_event_fields_defaults_duration_repr_are_pinned():
    assert TraceEvent._fields == (
        "rank", "category", "primitive", "nbytes", "t_start", "t_end",
        "peer", "cid", "msg_id",
    )
    assert TraceEvent._field_defaults == {"peer": -1, "cid": -1, "msg_id": -1}
    e = TraceEvent(3, "p2p", "MPI_Send", 64, 0.25, 1.0, peer=1, cid=0, msg_id=7)
    assert e.duration == 0.75
    assert repr(e) == (
        "TraceEvent(rank=3, category='p2p', primitive='MPI_Send', nbytes=64, "
        "t_start=0.25, t_end=1.0, peer=1, cid=0, msg_id=7)"
    )
    assert repr(TraceEvent(0, "compute", "compute", 0, 0.0, 2.5)) == (
        "TraceEvent(rank=0, category='compute', primitive='compute', nbytes=0, "
        "t_start=0.0, t_end=2.5, peer=-1, cid=-1, msg_id=-1)"
    )


def test_record_takes_no_lock_and_does_no_summary_work(monkeypatch):
    class NoLock:
        def __enter__(self):
            raise AssertionError("record took the tracer lock")

    def no_add(self, event):
        raise AssertionError("record folded into the summary")

    tracer = Tracer()
    tracer._tail_lock = NoLock()
    monkeypatch.setattr(TraceSummary, "_add", no_add)
    tracer.record(0, "p2p", "MPI_Send", 8, 0.0, 1.0, peer=1, cid=0, msg_id=0)
    tracer.record(1, "compute", "compute", 0, 0.0, 2.0)
    tracer._tail_lock = threading.Lock()
    assert len(tracer) == 2
    assert tracer.events[0] == TraceEvent(0, "p2p", "MPI_Send", 8, 0.0, 1.0, 1, 0, 0)


def test_record_takes_neither_lock(monkeypatch):
    """Record neither takes the tracer lock nor builds an event: both
    wait for the first read, which returns every event in record order."""

    class NoLock:
        def __enter__(self):
            raise AssertionError("record took a tracer lock")

    def no_build(fields):
        raise AssertionError("record built an event")

    tracer = Tracer()
    tracer._tail_lock = NoLock()
    monkeypatch.setattr(trace_mod, "_event", no_build)
    tracer.record(0, "p2p", "MPI_Send", 8, 0.0, 1.0, peer=1, cid=0, msg_id=0)
    tracer.record(1, "compute", "compute", 0, 0.0, 2.0)
    tracer._tail_lock = threading.Lock()
    monkeypatch.undo()
    assert tracer.events == [
        TraceEvent(0, "p2p", "MPI_Send", 8, 0.0, 1.0, 1, 0, 0),
        TraceEvent(1, "compute", "compute", 0, 0.0, 2.0),
    ]


# -- events stored flat, built on read ----------------------------------------


def _assert_matches_recompute(tracer, recorded):
    """Every reader agrees, bit for bit, with a recompute over ``recorded``."""
    expected = [TraceEvent(*rec) for rec in recorded]
    assert len(tracer) == len(expected)
    assert tracer.events == expected
    whole = TraceSummary()
    for e in expected:
        whole._add(e)
    assert tracer.summary() == whole  # dataclass ==: float sums compared exactly
    assert tracer.primitives_used() == set(whole.primitive_counts)
    for rank in range(4):
        mine = [e for e in expected if e.rank == rank]
        assert tracer.events_for(rank) == mine
        alone = TraceSummary()
        for e in mine:
            alone._add(e)
        assert tracer.summary(rank) == alone
        assert tracer.primitives_used(rank) == set(alone.primitive_counts)


_steps = st.lists(
    st.one_of(
        _records.map(lambda recs: ("record", recs)),
        st.just(("read", None)),
        st.just(("clear", None)),
    ),
    max_size=12,
)


#: record -> read -> record -> read -> clear() -> record, before the drawn steps
_FIXED_STEPS = [
    ("record", [(0, "p2p", "MPI_Send", 8, 0.0, 0.1)]), ("read", None),
    ("record", [(1, "compute", "compute", 0, 0.1, 0.3)]), ("read", None),
    ("clear", None), ("record", [(2, "p2p", "MPI_Recv", 8, 0.2, 0.4)]),
]


@settings(max_examples=100, deadline=None)
@given(steps=_steps)
def test_readers_match_a_full_recompute_between_records_and_clears(steps):
    """Reads build each event once, in record order: interleaving
    records, reads and ``clear()`` never changes what a reader sees."""
    tracer = Tracer()
    recorded = []
    for op, recs in [*_FIXED_STEPS, *steps, ("read", None)]:
        if op == "record":
            for rec in recs:
                tracer.record(*rec)
            recorded += recs
        elif op == "clear":
            tracer.clear()
            recorded = []
        else:
            _assert_matches_recompute(tracer, recorded)

