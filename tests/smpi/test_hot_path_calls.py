"""A call budget for the point-to-point hot path.

Every Python-level call on the per-message path costs wall time on every
message of every workload.  This test counts the ``"call"`` events
:func:`sys.setprofile` sees (Python functions only, C builtins are
``"c_call"``) for one operation on a 1-rank world, so a refactor cannot
quietly put hops back: hooks that are off, property reads and
helper-to-helper hops inside ``MatchingQueues``.

The budget, per operation, counting the test's own ``lambda``:

=========================  ======  ======
operation                  before  budget
=========================  ======  ======
eager self-``sendrecv``        59      31
``isend(...).wait()``          39      22
exact ``recv`` (queued)        20       9
=========================  ======  ======

"Before" is the path with every hook tested inside its helper, the clock
and communicator size read through properties and the matching queues
split into key/enqueue/peek/consume helpers.  The ``sendrecv`` and
``isend(...).wait()`` budgets fell by one more call each when a
completed request stopped building a ``Status``.  A change that has to add a
call to the path raises the budget here, on purpose.
"""

import sys

from repro import smpi

BUDGET = {"sendrecv": 31, "isend_wait": 22, "recv": 9}


def _calls(op):
    """Python-level calls made while running ``op()``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return count


def _measure(comm):
    # Warm up first: the first message to a peer fills per-peer tallies.
    comm.sendrecv(0, dest=0, sendtag=0, source=0, recvtag=0)
    return {
        "sendrecv": _calls(lambda: comm.sendrecv(1, dest=0, sendtag=0, source=0, recvtag=0)),
        "isend_wait": _calls(lambda: comm.isend(2, dest=0, tag=1).wait()),
        "recv": _calls(lambda: comm.recv(source=0, tag=1)),
    }


def test_per_message_call_budget():
    assert smpi.run(1, _measure)[0] == BUDGET
