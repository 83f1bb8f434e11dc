"""A finished world is freed by reference counting alone.

No part of a world may hold a reference cycle back to it (a closure over
the ``World`` kept in one of its own tables is the easy way to make
one): with the cyclic garbage collector off, dropping the last
reference to a run's result must free its world at once.  Otherwise
every finished world, with its tracer and queues, lives until the next
GC pass, and a process that runs many worlds (the benchmark, the test
suite) grows its peak memory.

A sanitizer keeps its world for analysis after the run; the world lets
go of the sanitizer when :func:`repro.smpi.launch` returns, so that
link is one-way too.
"""

import gc
import weakref

import pytest

from repro import smpi
from repro.faults import FaultPlan
from repro.obs import run_workload
from repro.recovery import run_recoverable
from repro.sanitize import Sanitizer


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _ring(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    req = comm.irecv(source=left)
    comm.send(comm.rank, dest=right)
    total = comm.allreduce(req.wait())
    comm.barrier()
    return total


def _split_and_dup(comm):
    half = comm.split(comm.rank % 2)
    dup = half.dup()
    total = dup.allreduce(half.allreduce(comm.rank))
    dup.free()
    half.free()
    return total


def _wildcard_fanin(comm):
    """Rank 0 takes one message from every other rank with ANY_SOURCE:
    a sanitized run holds each receive and resolves it at a stall."""
    if comm.rank == 0:
        return sorted(comm.recv(source=smpi.ANY_SOURCE) for _ in range(comm.size - 1))
    comm.send(comm.rank, dest=0)
    return None


def _world_ref(run):
    """Run, keep only a weak reference to the world, drop the result."""
    out = run()
    world = out.run.world if hasattr(out, "run") else out.world
    return weakref.ref(world)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: smpi.launch(4, _ring), id="plain"),
        pytest.param(
            lambda: run_workload(
                "resilient", nprocs=4, check=False,
                faults=FaultPlan(seed=5).drop(src=2, dst=0).crash(3, at_time=0.0),
            ),
            id="faulted",
        ),
        pytest.param(lambda: smpi.launch(4, _split_and_dup), id="split-dup"),
        pytest.param(lambda: smpi.launch(4, _ring, sanitizer=Sanitizer()), id="sanitized"),
        pytest.param(
            lambda: smpi.launch(4, _wildcard_fanin, sanitizer=Sanitizer(match_order="last")),
            id="sanitized-race-replay",
        ),
        pytest.param(
            lambda: run_recoverable(
                "kmeans", FaultPlan(seed=7).crash(3, at_time=2.5e-5), nprocs=4
            ),
            id="recovered-shrink",
        ),
    ],
)
def test_finished_world_is_freed_by_refcount(run, no_cyclic_gc):
    ref = _world_ref(run)
    assert ref() is None, "the finished world is still alive: a reference cycle"


def test_recovered_run_really_shrinks():
    """The recovery case above exercises shrink/agree (its call table)."""
    rec = run_recoverable("kmeans", FaultPlan(seed=7).crash(3, at_time=2.5e-5), nprocs=4)
    assert rec.report.outcome == "recovered"
    assert any(e.primitive == "MPIX_Comm_shrink" for e in rec.run.tracer.events)
