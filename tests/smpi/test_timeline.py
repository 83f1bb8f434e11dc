"""Tests for the trace timeline renderer."""

import pytest

from repro import smpi
from repro.errors import ValidationError
from repro.smpi.timeline import render_timeline
from repro.smpi.trace import Tracer


def test_timeline_shows_compute_and_collective():
    def fn(comm):
        comm.compute(seconds=1.0)
        comm.allreduce(comm.rank, op=smpi.SUM)
        comm.compute(seconds=0.5)

    out = smpi.launch(3, fn)
    text = render_timeline(out.tracer, width=40)
    assert "rank   0" in text and "rank   2" in text
    assert "#" in text  # compute
    assert "=" in text  # collective
    assert "compute" in text  # legend


def test_timeline_p2p_glyph():
    def fn(comm):
        if comm.rank == 0:
            comm.ssend("x", dest=1)
        else:
            comm.compute(seconds=0.2)
            comm.recv(source=0)

    out = smpi.launch(2, fn)
    text = render_timeline(out.tracer, width=30)
    assert "~" in text


def test_timeline_selected_ranks():
    def fn(comm):
        comm.barrier()

    out = smpi.launch(4, fn)
    text = render_timeline(out.tracer, ranks=[1, 3], width=20)
    assert "rank   1" in text and "rank   3" in text
    assert "rank   0" not in text


def test_timeline_empty_trace_rejected():
    def fn(comm):
        comm.barrier()

    out = smpi.launch(2, fn, trace=False)
    with pytest.raises(ValidationError):
        render_timeline(out.tracer)


def test_timeline_single_event():
    tracer = Tracer()
    tracer.record(0, "compute", "compute", 0, 0.0, 1.0)
    text = render_timeline(tracer, width=10)
    lane = text.splitlines()[1]
    assert lane.count("#") == 10  # the event spans the whole horizon


def test_timeline_zero_duration_events():
    tracer = Tracer()
    tracer.record(0, "compute", "compute", 0, 0.0, 2.0)
    tracer.record(1, "p2p", "MPI_Probe", 0, 1.0, 1.0)  # instantaneous
    tracer.record(2, "p2p", "MPI_Probe", 0, 2.0, 2.0)  # at the very horizon
    text = render_timeline(tracer, width=20)
    lanes = text.splitlines()
    assert lanes[2].count("~") == 1  # one glyph, mid-lane
    assert lanes[3].rstrip("|").endswith("~")  # clamped to the last column


def test_timeline_explicit_shorter_horizon():
    """Events past an explicit t_end are skipped; spanning ones clamp."""
    tracer = Tracer()
    tracer.record(0, "compute", "compute", 0, 0.0, 10.0)
    tracer.record(1, "p2p", "MPI_Recv", 0, 8.0, 10.0)  # entirely past t_end=4
    text = render_timeline(tracer, width=16, t_end=4.0)
    lanes = text.splitlines()
    assert lanes[1].count("#") == 16  # clamped to the horizon
    assert "~" not in lanes[2]  # the late event is not drawn
    assert "4s" in lanes[0]


def test_timeline_explicit_longer_horizon():
    tracer = Tracer()
    tracer.record(0, "compute", "compute", 0, 0.0, 1.0)
    text = render_timeline(tracer, width=20, t_end=2.0)
    lane = text.splitlines()[1]
    assert 9 <= lane.count("#") <= 11  # half the lane
    assert lane.rstrip("|").endswith(" ")


def test_timeline_rejects_nonpositive_horizon():
    tracer = Tracer()
    tracer.record(0, "compute", "compute", 0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        render_timeline(tracer, t_end=0.0)


def test_timeline_width_must_be_positive():
    tracer = Tracer()
    tracer.record(0, "compute", "compute", 0, 0.0, 1.0)
    for width in (0, -5):
        with pytest.raises(ValidationError, match="width"):
            render_timeline(tracer, width=width)
    assert "rank   0 |#|" in render_timeline(tracer, width=1)


def test_timeline_proportions():
    """A rank computing 90% of the time shows mostly '#'."""

    def fn(comm):
        comm.compute(seconds=9.0)
        comm.barrier()

    out = smpi.launch(2, fn)
    text = render_timeline(out.tracer, width=50)
    lane = text.splitlines()[1]
    assert lane.count("#") > 40
