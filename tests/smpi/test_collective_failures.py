"""A crashed member must fail every collective, not hang it.

Regression net for the ULFM failure probes: each collective in Table II
is run on 4 ranks with rank 3 crashed at t=0.  Under ``ERRORS_RETURN``
every survivor gets :class:`~repro.errors.SmpiProcFailedError` promptly
(no deadlock-detector rescue, no wall-clock stall); under
``ERRORS_ARE_FATAL`` the world aborts.  If a new collective is added to
``KINDS`` without a failure probe, the parametrization below catches it.
"""

import pytest

from repro import smpi
from repro.errors import CommAbortError, SmpiProcFailedError
from repro.faults import FaultPlan
from repro.smpi.collectives import KINDS

NPROCS = 4
CRASHED = NPROCS - 1

# One canonical invocation per collective kind; each takes the comm of a
# *surviving* rank and must block on the crashed member's contribution.
_CALLS = {
    "barrier": lambda c: c.barrier(),
    "bcast": lambda c: c.bcast("payload" if c.rank == 0 else None, root=0),
    "scatter": lambda c: c.scatter(
        list(range(c.size)) if c.rank == 0 else None, root=0
    ),
    "gather": lambda c: c.gather(c.rank, root=0),
    "allgather": lambda c: c.allgather(c.rank),
    "alltoall": lambda c: c.alltoall([c.rank] * c.size),
    "reduce": lambda c: c.reduce(c.rank, root=0),
    "allreduce": lambda c: c.allreduce(c.rank),
    "reduce_scatter": lambda c: c.reduce_scatter([c.rank] * c.size),
    "scan": lambda c: c.scan(c.rank),
    "exscan": lambda c: c.exscan(c.rank),
}


def test_every_collective_kind_is_covered():
    """The table above must track ``KINDS`` exactly."""
    assert set(_CALLS) == set(KINDS)


@pytest.mark.parametrize("kind", sorted(_CALLS))
def test_collective_raises_proc_failed_for_survivors(kind):
    call = _CALLS[kind]

    def fn(comm):
        comm.set_errhandler(smpi.ERRORS_RETURN)
        if comm.rank == CRASHED:
            call(comm)  # first MPI call past t=0 executes the crash
            return None
        with pytest.raises(SmpiProcFailedError):
            call(comm)
        return "survived"

    plan = FaultPlan(seed=1).crash(rank=CRASHED, at_time=0.0)
    out = smpi.launch(NPROCS, fn, faults=plan, check=False)
    assert out.results[:CRASHED] == ["survived"] * CRASHED
    assert CRASHED in out.world.crashed  # the casualty is recorded


@pytest.mark.parametrize("kind", sorted(_CALLS))
def test_joined_then_crashed_member_still_counts(kind):
    """A member that contributed *before* dying does not poison the
    collective: the operation completes with its contribution (matching
    MPI's completion-is-local rule)."""
    call = _CALLS[kind]

    def fn(comm):
        comm.set_errhandler(smpi.ERRORS_RETURN)
        return call(comm)  # crash fires on the *second* op below

    def fn2(comm):
        comm.set_errhandler(smpi.ERRORS_RETURN)
        first = call(comm)
        if comm.rank == CRASHED:
            comm.barrier()  # dies here, after contributing above
            return None
        return first

    # trigger on the crashed rank's 1st send would be mid-collective;
    # use a generous at_time instead so the first collective finishes.
    clean = smpi.launch(NPROCS, fn, check=False)
    makespan = max(e.t_end for e in clean.tracer.events)
    plan = FaultPlan(seed=1).crash(rank=CRASHED, at_time=makespan * 1.01)
    out = smpi.launch(NPROCS, fn2, faults=plan, check=False)
    for rank in range(CRASHED):
        assert out.results[rank] == clean.results[rank]


def test_errors_are_fatal_aborts_the_world():
    """Default handler: a crashed member aborts everyone instead of
    returning an exception."""

    def fn(comm):
        if comm.rank == CRASHED:
            comm.barrier()
            return None
        with pytest.raises((SmpiProcFailedError, CommAbortError)):
            comm.allreduce(comm.rank)
        return "done"

    plan = FaultPlan(seed=1).crash(rank=CRASHED, at_time=0.0)
    out = smpi.launch(NPROCS, fn, faults=plan, check=False)
    assert out.results[:CRASHED] == ["done"] * CRASHED
    assert out.world.abort_exc is not None


def test_failure_is_prompt_not_a_timeout_rescue():
    """The probe fires via the failure hook as soon as the crash makes
    the waiters ready: the whole faulted run must finish in well under a
    second of wall time."""
    import time

    def fn(comm):
        comm.set_errhandler(smpi.ERRORS_RETURN)
        if comm.rank == CRASHED:
            comm.barrier()
            return None
        with pytest.raises(SmpiProcFailedError):
            comm.allreduce(comm.rank)
        return "ok"

    plan = FaultPlan(seed=1).crash(rank=CRASHED, at_time=0.0)
    t0 = time.monotonic()
    smpi.launch(NPROCS, fn, faults=plan, check=False)
    assert time.monotonic() - t0 < 5.0
