"""Abort and timeout propagation must be prompt.

Every abort, crash and timeout makes the blocked ranks ready (the
``abort_locked`` funnel, the stall pass), so a rank waiting for the
baton runs again at once.  These tests put a wall clock on that promise:
every scenario must resolve in well under two real seconds.  If one of
them starts taking seconds, a blocked rank is being woken late or the
world is busy-waiting.
"""

import time

import pytest

from repro import smpi
from repro.errors import DeadlockError, RankCrashedError, SmpiTimeoutError
from repro.faults import FaultPlan

# Generous CI headroom; each scenario takes milliseconds.
PROMPT = 2.0


def _elapsed(fn, *args, **kwargs):
    t0 = time.monotonic()
    try:
        return fn(*args, **kwargs), time.monotonic() - t0
    except BaseException:
        raise AssertionError("helper expects fn not to raise")


def test_abort_interrupts_a_blocked_recv_promptly():
    """Rank 0 is blocked waiting for the baton when rank 1 fails 0.2
    real seconds later; the abort must make it ready immediately."""

    def fn(comm):
        if comm.rank == 1:
            time.sleep(0.2)  # real time: rank 0 is blocked in recv
            raise RuntimeError("late failure")
        comm.recv(source=1)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="late failure"):
        smpi.run(2, fn)
    assert time.monotonic() - t0 < PROMPT


def test_deadlock_detection_is_prompt():
    def fn(comm):
        comm.recv(source=(comm.rank + 1) % comm.size)

    t0 = time.monotonic()
    with pytest.raises(DeadlockError):
        smpi.run(2, fn)
    assert time.monotonic() - t0 < PROMPT


def test_virtual_timeout_fires_in_real_milliseconds():
    """A 2 ms *virtual* timeout must not cost real seconds: the stall
    detector hands out the timeout as soon as the world stalls."""

    def fn(comm):
        with pytest.raises(SmpiTimeoutError):
            comm.recv(source=0, timeout=2e-3)
        return True

    (results, dt) = _elapsed(smpi.run, 1, fn)
    assert results == [True]
    assert dt < PROMPT


def test_crashed_peer_error_is_prompt():
    def fn(comm):
        if comm.rank == 1:
            time.sleep(0.2)
            comm.barrier()  # crash trigger fires here
            return None
        comm.set_errhandler(smpi.ERRORS_RETURN)
        try:
            comm.recv(source=1)
        except RankCrashedError:
            return "handled"

    plan = FaultPlan().crash(rank=1, at_time=0.0)
    (out, dt) = _elapsed(smpi.launch, 2, fn, faults=plan)
    assert out.results[0] == "handled"
    assert dt < PROMPT


def test_retry_loop_under_faults_is_prompt():
    """Two timed-out attempts plus a crashed peer: the whole drill must
    resolve in milliseconds of wall time."""
    from repro.faults.drills import resilient_partial_sum

    plan = FaultPlan(seed=5).drop(src=2, dst=0).crash(rank=3, at_time=0.0)
    (out, dt) = _elapsed(smpi.launch, 4, resilient_partial_sum, faults=plan)
    assert out.results[0]["lost_ranks"] == [2, 3]
    assert dt < PROMPT
