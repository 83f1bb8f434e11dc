"""Pin every send path of the point-to-point layer, observable by observable.

Each case runs one send primitive (``send``/``ssend``/``bsend``/``isend``)
at an eager and a rendezvous size, clean, with the first message dropped,
or with it duplicated, and reduces the run to what a refactor of the send
path must not change: the canonical trace, every rank's final virtual
clock, the ``Status`` each ``isend`` request completes with, the
receiver's view, the run's outcome and the message counters
(``smpi.bytes_sent``/``messages_sent``/``bytes_recv``) per label set.

A separate three-rank run deadlocks with one rank blocked inside a
rendezvous send (``check=False``), so its counters pin what an aborted
run publishes.

The expected values in ``data/send_paths_golden.json`` were recorded
with the runtime whose send path kept one delivery block per protocol
branch and counted every message in the metrics registry as it was
sent.  Regenerate (only ever against a known-good runtime!) with::

    PYTHONPATH=src python tests/smpi/test_send_paths.py \
        > tests/smpi/data/send_paths_golden.json
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro import smpi
from repro.errors import SmpiTimeoutError
from repro.faults import FaultPlan
from repro.faults.runner import canonical_trace
from repro.smpi import Status

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "send_paths_golden.json"
PRIMITIVES = ("send", "ssend", "bsend", "isend")
#: float64 elements per payload: 512 B sends eagerly, 64 KiB by rendezvous
SIZES = {"eager": 64, "rendezvous": 8192}
FAULTS = ("none", "drop", "duplicate")
COUNTERS = ("smpi.bytes_sent", "smpi.messages_sent", "smpi.bytes_recv")
RECV_TIMEOUT = 1e-3


def _plan(fault: str):
    if fault == "drop":
        return FaultPlan(seed=3).drop(src=0, tag=1)
    if fault == "duplicate":
        return FaultPlan(seed=3).duplicate(src=0, tag=1)
    return None


def _pair(comm, primitive: str, elements: int):
    """Rank 0 sends tags 1 and 2 with ``primitive``; rank 1 receives
    from rank 0 until a receive times out."""
    if comm.rank == 0:
        statuses = []
        for tag in (1, 2):
            payload = np.full(elements, float(tag))
            if primitive == "isend":
                req = comm.isend(payload, dest=1, tag=tag)
                comm.compute(seconds=1e-6)
                status = Status()
                req.wait(status)
                statuses.append([status.source, status.tag, status.nbytes])
            else:
                getattr(comm, primitive)(payload, dest=1, tag=tag)
        return statuses
    got = []
    while True:
        status = Status()
        try:
            value = comm.recv(source=0, status=status, timeout=RECV_TIMEOUT)
        except SmpiTimeoutError:
            return got
        got.append([status.tag, status.nbytes, float(value[0])])


def _deadlocked_mid_send(comm):
    """Every primitive at both sizes, then rank 0 blocks in a rendezvous
    ``ssend`` nobody receives while ranks 1 and 2 wait for messages
    nobody sends: a deadlock, detected only once all three are blocked."""
    small, large = np.ones(8), np.ones(4096)
    if comm.rank == 0:
        comm.send(small, dest=1, tag=0)
        comm.isend(small, dest=2, tag=0).wait()
        comm.bsend(large, dest=1, tag=1)
        comm.send(large, dest=2, tag=1)
        comm.isend(large, dest=1, tag=2).wait()
        comm.ssend(small, dest=2, tag=2)
        comm.ssend(large, dest=1, tag=5)
    elif comm.rank == 1:
        for tag in (0, 1, 2):
            comm.recv(source=0, tag=tag)
        comm.recv(source=2, tag=9)
    else:
        for tag in (0, 1, 2):
            comm.recv(source=0, tag=tag)
        comm.recv(source=1, tag=9)


def _observe(out) -> dict:
    world = out.world
    return {
        "outcome": None if out.error is None else type(out.error).__name__,
        "trace_sha256": hashlib.sha256(
            canonical_trace(out.tracer.events, world.nprocs)
        ).hexdigest(),
        "clocks": [c.now for c in world.clocks],
        "results": out.results,
        "counters": {
            f"{s.name}{s.label_text}": s.value
            for name in COUNTERS
            for s in world.metrics.collect(name)
        },
    }


def _case_key(primitive: str, size: str, fault: str) -> str:
    return f"{primitive},{size},{fault}"


def _run_case(primitive: str, size: str, fault: str) -> dict:
    out = smpi.launch(
        2, _pair, primitive, SIZES[size], faults=_plan(fault), check=False
    )
    return _observe(out)


def _run_deadlock() -> dict:
    return _observe(smpi.launch(3, _deadlocked_mid_send, check=False))


def _observe_all() -> dict:
    observed = {
        _case_key(p, s, f): _run_case(p, s, f)
        for p in PRIMITIVES
        for s in SIZES
        for f in FAULTS
    }
    observed["deadlocked_mid_send"] = _run_deadlock()
    return observed


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("size", list(SIZES))
@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_send_path_matches_recorded(primitive, size, fault):
    expected = _golden()[_case_key(primitive, size, fault)]
    assert _run_case(primitive, size, fault) == expected


def test_aborted_run_publishes_the_recorded_counters():
    observed = _run_deadlock()
    expected = _golden()["deadlocked_mid_send"]
    assert observed["outcome"] == "DeadlockError"
    assert observed["counters"] == expected["counters"]
    assert observed == expected


def test_cases_cover_every_protocol_branch():
    """The recorded matrix reaches the four protocol branches and the
    fault outcomes it claims to (a guard against a vacuous golden)."""
    cases = _golden()
    # A dropped blocking rendezvous send waits forever: deadlock.
    for primitive in ("send", "ssend", "isend"):
        assert cases[_case_key(primitive, "rendezvous", "drop")]["outcome"] == (
            "DeadlockError"
        )
    # bsend is always eager, so a drop only loses the message.
    assert cases[_case_key("bsend", "rendezvous", "drop")]["outcome"] is None
    # A duplicate reaches the receiver twice.
    dup = cases[_case_key("send", "eager", "duplicate")]["results"][1]
    assert [tag for tag, _, _ in dup] == [1, 1, 2]
    # Eager isend statuses carry the sender's rank; rendezvous ones do not.
    eager = cases[_case_key("isend", "eager", "none")]["results"][0]
    rdv = cases[_case_key("isend", "rendezvous", "none")]["results"][0]
    assert [s[0] for s in eager] == [0, 0]
    assert [s[0] for s in rdv] != [0, 0]


if __name__ == "__main__":
    rows = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in _observe_all().items()
    ]
    print("{\n" + ",\n".join(rows) + "\n}")
