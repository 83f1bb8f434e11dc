"""Wait-state attribution, critical path and load imbalance."""

import pytest

from repro import smpi
from repro.errors import ValidationError
from repro.faults import FaultPlan
from repro.obs.analysis import (
    analyze_wait_states,
    critical_path,
    load_imbalance,
    match_messages,
)


def _ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.sendrecv(bytes(1024), dest=right, source=left)


def test_match_messages_pairs_both_ends():
    def fn(comm):
        if comm.rank == 0:
            comm.send(bytes(64), dest=1)
        else:
            comm.recv(source=0)

    out = smpi.launch(2, fn)
    matches = match_messages(out.tracer)
    assert len(matches) == 1
    m = matches[0]
    assert m.send.rank == 0 and m.recv.rank == 1
    assert m.send.msg_id == m.recv.msg_id >= 0


def test_late_sender_attributed_to_receiver():
    def fn(comm):
        if comm.rank == 1:
            comm.compute(seconds=1.0)
            comm.ssend(bytes(8), dest=0)
        else:
            comm.recv(source=1)  # posted at t=0, send starts at t=1

    out = smpi.launch(2, fn)
    report = analyze_wait_states(out.tracer)
    assert report.rank_total(0, "late_sender") == pytest.approx(1.0, rel=1e-6)
    assert report.rank_total(1, "late_sender") == 0.0
    (w,) = [i for i in report.intervals if i.kind == "late_sender"]
    assert w.peer == 1


def test_late_receiver_attributed_to_blocked_sender():
    def fn(comm):
        if comm.rank == 0:
            comm.ssend(bytes(8), dest=1)  # rendezvous: stalls until recv post
        else:
            comm.compute(seconds=1.0)
            comm.recv(source=0)

    out = smpi.launch(2, fn)
    report = analyze_wait_states(out.tracer)
    assert report.rank_total(0, "late_receiver") == pytest.approx(1.0, rel=1e-6)
    (w,) = [i for i in report.intervals if i.kind == "late_receiver"]
    assert w.peer == 1


def test_eager_sends_are_not_late_receiver():
    """An eager send pays injection overhead only — never the receiver's
    fault, even when the receive is posted late."""

    def fn(comm):
        if comm.rank == 0:
            comm.send(bytes(8), dest=1)  # tiny: eager protocol
        else:
            comm.compute(seconds=1.0)
            comm.recv(source=0)

    out = smpi.launch(2, fn)
    report = analyze_wait_states(out.tracer)
    assert report.by_kind().get("late_receiver", 0.0) == 0.0


def test_collective_sync_charges_early_entrants():
    def fn(comm):
        comm.compute(seconds=float(comm.rank))
        comm.barrier()

    out = smpi.launch(3, fn)
    report = analyze_wait_states(out.tracer)
    assert report.rank_total(0, "collective_sync") == pytest.approx(2.0, rel=1e-6)
    assert report.rank_total(1, "collective_sync") == pytest.approx(1.0, rel=1e-6)
    assert report.rank_total(2, "collective_sync") == 0.0
    assert report.by_kind()["collective_sync"] == pytest.approx(3.0, rel=1e-6)


def test_balanced_ring_has_no_p2p_waits():
    out = smpi.launch(4, _ring)
    report = analyze_wait_states(out.tracer)
    assert report.by_kind().get("late_receiver", 0.0) == 0.0


@pytest.mark.parametrize("nprocs", [2, 4])
def test_critical_path_telescopes_to_makespan(nprocs):
    def fn(comm):
        comm.compute(seconds=0.1 * (comm.rank + 1))
        _ring(comm)
        comm.allreduce(comm.rank, op=smpi.SUM)

    out = smpi.launch(nprocs, fn)
    path = critical_path(out.tracer)
    makespan = max(e.t_end for e in out.tracer.events)
    assert path.makespan == pytest.approx(makespan)
    assert path.length == pytest.approx(makespan, rel=1e-9)
    assert sum(path.time_by_category().values()) == pytest.approx(path.length)
    assert sum(path.time_by_rank().values()) == pytest.approx(path.length)
    for a, b in zip(path.segments, path.segments[1:]):
        assert a.t_end <= b.t_end + 1e-12  # time-ordered


def test_critical_path_runs_through_the_slow_rank():
    def fn(comm):
        comm.compute(seconds=2.0 if comm.rank == 1 else 0.01)
        comm.barrier()

    out = smpi.launch(3, fn)
    path = critical_path(out.tracer)
    by_rank = path.time_by_rank()
    assert max(by_rank, key=lambda r: by_rank[r]) == 1
    assert path.time_by_category()["compute"] == pytest.approx(2.0, rel=1e-6)


def test_load_imbalance_statistic():
    def fn(comm):
        comm.compute(seconds=float(comm.rank + 1))
        comm.barrier()

    out = smpi.launch(2, fn)
    imb = load_imbalance(out.tracer)
    assert imb.most_loaded_rank == 1
    assert imb.max_compute == pytest.approx(2.0)
    assert imb.mean_compute == pytest.approx(1.5)
    assert imb.imbalance == pytest.approx(2.0 / 1.5 - 1.0)
    assert set(imb.compute_by_rank) == {0, 1}
    assert imb.busy_by_rank[0] >= imb.compute_by_rank[0]


def test_empty_trace_rejected_everywhere():
    def fn(comm):
        comm.barrier()

    out = smpi.launch(2, fn, trace=False)
    for fn_ in (analyze_wait_states, critical_path, load_imbalance):
        with pytest.raises(ValidationError):
            fn_(out.tracer)


def _collective_then_straggler_shrink(comm):
    """Staggered entry into an allreduce, then rank 2 crashes (by plan)
    and rank 1 arrives late to the survivors' shrink."""
    comm.set_errhandler(smpi.ERRORS_RETURN)
    comm.compute(flops=1e6 * comm.rank)
    comm.allreduce(comm.rank, op=smpi.SUM)
    comm.compute(flops={0: 0, 1: 5e6, 2: 2e6}[comm.rank])
    return comm.shrink().size


def _straggler_shrink_run():
    plan = FaultPlan().crash(rank=2, at_time=2e-4)
    out = smpi.launch(3, _collective_then_straggler_shrink, faults=plan, check=False)
    assert out.error is None and out.results == [2, 2, None]
    return out


def test_rendezvous_waits_and_critical_path_are_pinned():
    """Both rendezvous patterns, and the path through the shrink, to the
    last bit (floats compared with ``==``)."""
    out = _straggler_shrink_run()
    intervals = [
        (w.rank, w.kind, w.primitive, w.peer, w.t_start, w.t_end, w.cid)
        for w in analyze_wait_states(out.tracer).intervals
    ]
    assert intervals == [
        (0, "collective_sync", "MPI_Allreduce", -1, 0.0, 0.0001, 0),
        (1, "collective_sync", "MPI_Allreduce", -1, 5e-05, 0.0001, 0),
        (0, "recovery_sync", "MPIX_Comm_shrink", -1,
         0.00010100240000000001, 0.0003510024, 0),
    ]
    path = critical_path(out.tracer)
    segments = [
        (s.rank, s.category, s.primitive, s.t_start, s.t_end, s.contribution)
        for s in path.segments
    ]
    assert segments == [
        (2, "compute", "compute", 0.0, 0.0001, 0.0001),
        (1, "collective", "MPI_Allreduce", 5e-05, 0.00010100240000000001,
         1.0024000000000025e-06),
        (1, "compute", "compute", 0.00010100240000000001, 0.0003510024, 0.00025),
        (1, "recovery", "MPIX_Comm_shrink", 0.0003510024, 0.0003525024,
         1.4999999999999823e-06),
    ]
    assert path.makespan == 0.0003525024


def test_a_handed_event_list_is_left_as_it_was():
    events = _straggler_shrink_run().tracer.events
    before = list(events)
    match_messages(events)
    analyze_wait_states(events)
    critical_path(events)
    load_imbalance(events)
    assert events == before
