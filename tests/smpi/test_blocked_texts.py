"""Pin the texts a blocked or failed point-to-point wait reports.

The sanitizer parses these descriptions and error messages, and the
crash drills print them, so they are part of the runtime's interface:
the ``DeadlockError`` line of each kind of blocked wait, the
``SmpiProcFailedError`` a wait raises under ``ERRORS_RETURN`` when its
peer crashed (and the abort origin under ``ERRORS_ARE_FATAL``), and the
mismatch texts of the two call tables (collectives, shrink/agree).

``tests/smpi/test_send_paths.py`` pins the blocked ``ssend``; the
expected strings here were recorded with the runtime whose send, recv
and wait paths each spelled out their own ``World.block`` call.
"""

import numpy as np
import pytest

from repro import smpi
from repro.errors import SmpiProcFailedError
from repro.faults import FaultPlan

#: 64 KiB of float64: sent by rendezvous
LARGE = np.zeros(8192)
DEADLOCK = (
    "deadlock detected — every live rank is blocked and no message can "
    "ever arrive:\n"
)


def _blocked_isend_wait(comm):
    if comm.rank == 0:
        comm.isend(LARGE, dest=1, tag=3).wait()
    else:
        comm.recv(source=0, tag=4)


def _blocked_irecv_wait(comm):
    if comm.rank == 0:
        comm.irecv(source=1, tag=5).wait()
    else:
        comm.recv(source=0)


@pytest.mark.parametrize(
    "fn, lines",
    [
        (
            _blocked_isend_wait,
            "  rank 0: MPI_Wait(isend tag=3, 65536 B, rendezvous) waiting for a "
            "matching recv\n"
            "  rank 1: MPI_Recv(source=0, tag=4) waiting for a message",
        ),
        (
            _blocked_irecv_wait,
            "  rank 0: MPI_Wait(irecv) waiting for a message\n"
            "  rank 1: MPI_Recv(source=0, tag=ANY_TAG) waiting for a message",
        ),
    ],
)
def test_deadlock_names_each_blocked_wait(fn, lines):
    out = smpi.launch(2, fn, check=False)
    assert type(out.error).__name__ == "DeadlockError"
    assert str(out.error) == DEADLOCK + lines


#: rank 0's operation, with rank 1 crashing at its first MPI call
OPS = {
    "send": lambda comm: comm.send(LARGE, dest=1, tag=6),
    "isend_wait": lambda comm: comm.isend(LARGE, dest=1, tag=7).wait(),
    "recv": lambda comm: comm.recv(source=1, tag=8),
    "irecv_wait": lambda comm: comm.irecv(source=1, tag=9).wait(),
    "barrier": lambda comm: comm.barrier(),
}
CRASH = FaultPlan().crash(1, at_time=0.0)


def _peer_crashes(op, errhandler):
    def fn(comm):
        if comm.rank == 1:
            comm.barrier()  # crashes here, after rank 0 has blocked
            return None
        comm.set_errhandler(errhandler)
        try:
            op(comm)
        except SmpiProcFailedError as exc:
            return str(exc)
        return None

    return fn


@pytest.mark.parametrize(
    "op, text",
    [
        ("send", "MPI_Send(dest=1): rank 1 (world rank 1) crashed"),
        ("isend_wait", "MPI_Wait(isend tag=7): rank 1 (world rank 1) crashed"),
        ("recv", "MPI_Recv(source=1, tag=8): rank 1 (world rank 1) crashed"),
        ("irecv_wait", "MPI_Wait(irecv): rank 1 (world rank 1) crashed"),
        ("barrier", "MPI_Barrier: rank(s) [1] crashed before entering the collective"),
    ],
)
def test_crashed_peer_text_under_errors_return(op, text):
    out = smpi.launch(
        2, _peer_crashes(OPS[op], smpi.ERRORS_RETURN), faults=CRASH, check=False
    )
    assert out.error is None
    assert out.results[0] == text


@pytest.mark.parametrize(
    "op, text, origin",
    [
        (
            "recv",
            "MPI_Recv(source=1, tag=8): rank 1 (world rank 1) crashed",
            "rank 0 observed a crashed peer",
        ),
        (
            "barrier",
            "MPI_Barrier: rank(s) [1] crashed before entering the collective",
            "rank 0 observed a crashed peer in MPI_Barrier",
        ),
    ],
)
def test_crashed_peer_aborts_under_errors_are_fatal(op, text, origin):
    out = smpi.launch(
        2, _peer_crashes(OPS[op], smpi.ERRORS_ARE_FATAL), faults=CRASH, check=False
    )
    assert isinstance(out.error, SmpiProcFailedError)
    assert str(out.error) == text
    assert out.world.abort_origin == origin


def _collective_mismatch(comm):
    if comm.rank == 0:
        comm.barrier()
    else:
        comm.bcast(1)


def _shrink_vs_agree(comm):
    if comm.rank == 0:
        comm.shrink()
    else:
        comm.agree(True)


@pytest.mark.parametrize(
    "fn, text",
    [
        (
            _collective_mismatch,
            "collective mismatch at call #0: rank 1 called 'bcast' but "
            "another rank called 'barrier'",
        ),
        (
            _shrink_vs_agree,
            "fault-tolerant call mismatch at call #0: rank 1 called 'agree' "
            "but another rank called 'shrink'",
        ),
    ],
)
def test_call_table_mismatch_text(fn, text):
    out = smpi.launch(2, fn, check=False)
    assert type(out.error).__name__ == "SMPIError"
    assert str(out.error) == text
