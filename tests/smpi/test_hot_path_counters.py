"""The runtime's own counters, pinned per world.

The point-to-point hot path counts as it goes, in plain ints (see
:meth:`repro.smpi.runtime.World.publish_runtime_counters`): matching
(``smpi.match.*``), scheduler wakeups (``smpi.wakeups.*``) and the
per-rank message tallies behind ``smpi.messages_sent``,
``smpi.bytes_sent`` and ``smpi.bytes_recv``.  Those counting sites sit
inside the inlined fast paths of ``MatchingQueues`` and ``Comm``, so a
refactor of the path can drop or double one without changing any
virtual time.  The values below were recorded on the runtime before
the per-message path was shortened; a dropped or double-counted site
fails here.

A label set is pinned as its number of series, its total and a digest
of every ``{labels}=value`` row, so a moved label fails too.
"""

import hashlib

import pytest

from repro import smpi
from repro.faults import FaultPlan
from repro.harness.stress import TAG_FANIN, TAG_SHIFT, fanin_storm, mixed_workload, p2p_storm
from repro.sanitize import Sanitizer

SCALARS = (
    "smpi.match.indexed_hits",
    "smpi.match.wildcard_scans",
    "smpi.match.unexpected_enqueued",
    "smpi.wakeups.targeted",
    "smpi.wakeups.broadcast",
    "smpi.wakeups.missed",
)
LABEL_SETS = ("smpi.messages_sent", "smpi.bytes_sent", "smpi.bytes_recv")


def _wildcard_and_iprobe(comm):
    """Rank 0 polls ``iprobe(ANY_SOURCE)`` and receives from the sender
    it found, then drains a second wave with ``recv(ANY_SOURCE)``."""
    if comm.rank == 0:
        got = []
        status = smpi.Status()
        for _ in range(comm.size - 1):
            while not comm.iprobe(source=smpi.ANY_SOURCE, tag=7, status=status):
                pass
            got.append(comm.recv(source=status.source, tag=7))
        for _ in range(comm.size - 1):
            got.append(comm.recv(source=smpi.ANY_SOURCE, tag=8))
        return got
    comm.send(comm.rank, dest=0, tag=7)
    comm.send(comm.rank * 10, dest=0, tag=8)
    return comm.rank


def _mixed_sanitized_faulted():
    plan = (
        FaultPlan(seed=3)
        .delay(2e-5, tag=TAG_SHIFT, probability=0.3)
        .delay(5e-5, tag=TAG_FANIN, probability=0.2)
        .slow_link(factor=3.0, src=1)
    )
    return smpi.launch(
        32, mixed_workload, rounds=6, seed=3, reps=2, faults=plan, sanitizer=Sanitizer()
    )


CASES = {
    "p2p_storm": lambda: smpi.launch(32, p2p_storm, messages=20),
    "fanin_storm": lambda: smpi.launch(32, fanin_storm, messages=20),
    "mixed_sanitized_faulted": _mixed_sanitized_faulted,
    "wildcard_iprobe": lambda: smpi.launch(4, _wildcard_and_iprobe),
}

#: scalars in SCALARS order; label sets as (series, total, digest).
RECORDED = {
    "p2p_storm": (
        (640, 0, 640, 1280, 32, 0),
        {
            "smpi.messages_sent": (32, 1280, "adccb61f85de80b6"),
            "smpi.bytes_sent": (64, 10240, "471a7d3d07dd617f"),
            "smpi.bytes_recv": (64, 10240, "a5463b07e96e3b5e"),
        },
    ),
    "fanin_storm": (
        (619, 0, 619, 620, 32, 0),
        {
            "smpi.messages_sent": (31, 620, "3b4287c215541034"),
            "smpi.bytes_sent": (31, 4960, "0bb5c8d1a4ea0e19"),
            "smpi.bytes_recv": (31, 4960, "ff6b47eafd159bc6"),
        },
    ),
    "mixed_sanitized_faulted": (
        (198, 0, 196, 508, 32, 0),
        {
            "smpi.messages_sent": (64, 318, "6a2b8257a8b0f83f"),
            "smpi.bytes_sent": (126, 2544, "fee467fb927621cd"),
            "smpi.bytes_recv": (108, 2544, "6b446b238505b5dc"),
        },
    ),
    "wildcard_iprobe": (
        (3, 7, 6, 6, 4, 0),
        {
            "smpi.messages_sent": (3, 6, "23fd64138570a6c4"),
            "smpi.bytes_sent": (3, 48, "942ea56759e1aa47"),
            "smpi.bytes_recv": (3, 48, "26630b1b1fd60e91"),
        },
    ),
}


def _label_set(metrics, name):
    samples = [s for s in metrics.collect(name) if s.name == name]
    rows = sorted(f"{s.label_text}={s.value:g}" for s in samples)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
    return len(rows), sum(s.value for s in samples), digest


@pytest.mark.parametrize("case", list(CASES))
def test_runtime_counters_match_the_recorded_values(case):
    metrics = CASES[case]().metrics
    scalars, label_sets = RECORDED[case]
    assert tuple(metrics.value(name) for name in SCALARS) == scalars
    for name, (series, total, digest) in label_sets.items():
        assert _label_set(metrics, name) == (series, total, digest), name
