"""Pin the ``Status`` a completed request fills, for each kind of request.

``Request.test(status)`` and ``waitall(reqs, statuses)`` copy a completed
request's source, tag and size into the caller's ``Status``.  Three
requests disagree on the source:

* an eager ``isend`` reports the sender's own communicator rank;
* a rendezvous ``isend`` leaves it at ``ANY_SOURCE``;
* an ``irecv`` reports the sender's rank in the *receiving* communicator,
  translated from the world rank the envelope carries (the case below
  runs on a ``split`` communicator whose ranks differ from the world's).

The expected values were recorded with the runtime that stored a full
``Status`` object on every completed request.
"""

import numpy as np
import pytest

from repro import smpi
from repro.smpi import ANY_SOURCE, Status

#: float64 elements per payload: 512 B sends eagerly, 64 KiB by rendezvous
EAGER, RENDEZVOUS = 64, 8192


def _fields(status: Status) -> list[int]:
    return [status.source, status.tag, status.nbytes]


def _tested(req) -> list[int]:
    """Poll ``req.test(status)`` until the request completes."""
    status = Status()
    while not req.test(status)[0]:
        pass
    return _fields(status)


def _waited(reqs) -> list[list[int]]:
    statuses = [Status() for _ in reqs]
    smpi.waitall(reqs, statuses)
    return [_fields(s) for s in statuses]


def _isends(comm, elements: int):
    """World rank 2 isends tags 5, 6 and 7 to world rank 1."""
    if comm.rank == 2:
        first = comm.isend(np.zeros(elements), dest=1, tag=5)
        tested = _tested(first)
        reqs = [comm.isend(np.zeros(elements + i), dest=1, tag=6 + i) for i in range(2)]
        return {"test": tested, "waitall": _waited(reqs)}
    if comm.rank == 1:
        for tag in (5, 6, 7):
            comm.recv(source=2, tag=tag)
    return None


def _split_irecvs(comm):
    """On ``split(rank % 2, key=-rank)`` the world ranks reverse: world 2
    is rank 0 of the even half and world 0 its rank 1.  Each half's rank
    0 sends tags 3, 4 and 5 to its rank 1, which irecvs them by comm rank
    and by ``ANY_SOURCE``."""
    sub = comm.split(color=comm.rank % 2, key=-comm.rank)
    if sub.rank == 0:
        for tag in (3, 4, 5):
            sub.send(np.zeros(EAGER * tag), dest=1, tag=tag)
        return None
    tested = _tested(sub.irecv(source=0, tag=3))
    reqs = [sub.irecv(source=0, tag=4), sub.irecv(source=ANY_SOURCE, tag=5)]
    return {"world_rank": comm.rank, "test": tested, "waitall": _waited(reqs)}


CASES = {
    "eager-isend": (lambda comm: _isends(comm, EAGER), 2, {
        "test": [2, 5, 512],
        "waitall": [[2, 6, 512], [2, 7, 520]],
    }),
    "rendezvous-isend": (lambda comm: _isends(comm, RENDEZVOUS), 2, {
        "test": [ANY_SOURCE, 5, 65536],
        "waitall": [[ANY_SOURCE, 6, 65536], [ANY_SOURCE, 7, 65544]],
    }),
    "split-irecv": (_split_irecvs, 0, {
        "world_rank": 0,
        "test": [0, 3, 1536],
        "waitall": [[0, 4, 2048], [0, 5, 2560]],
    }),
}


@pytest.mark.parametrize("case", CASES)
def test_completed_request_status(case):
    fn, rank, expected = CASES[case]
    assert smpi.run(4, fn)[rank] == expected
