"""Tracer: primitive recording, time breakdown, volumes."""

import threading

import numpy as np
import pytest

from repro import smpi
from repro.smpi.trace import Tracer


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
    """N rank threads hammer one tracer; every event and every
    incremental-summary update must survive."""
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
    """The O(1) whole-trace summary equals an event-list recompute."""

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
