"""A garbage-collector budget for the message path.

Every message that leaves a GC-tracked object alive pushes the cyclic
collector towards its next pass, and each pass scans every young object.
This test counts the passes, per generation, that one traced 32-rank
storm world starts (``gc.callbacks``), after an identical warm-up world
and a ``gc.collect()`` that zeroes the generation counts.  The
one-rank-at-a-time scheduler makes the count the same in every process.

The pins are recorded per ``sys.version_info[:2]``, because the
collector's accounting changes between Python releases; a version with
no pin skips.  Before the tracer stored its events flat and completed
requests stopped building a ``Status``, Python 3.11 made
``[16, 1, 0]`` passes for the ``fanin_storm`` world and ``[22, 2, 0]``
for the ``p2p_storm`` one.  A change that lowers a count lowers its pin
here; one that raises it says why.
"""

import gc
import sys

import pytest

from repro import smpi
from repro.harness.stress import fanin_storm, p2p_storm

NPROCS = 32
WORLDS = {"fanin_storm": (fanin_storm, 100), "p2p_storm": (p2p_storm, 75)}
#: passes of generations 0, 1 and 2 per world, by Python version
PINS = {
    (3, 11): {"fanin_storm": [6, 0, 0], "p2p_storm": [3, 0, 0]},
}
#: the collector's default thresholds, which the pins assume
THRESHOLDS = (700, 10, 10)


def _passes(fn, messages: int) -> list[int]:
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    smpi.launch(NPROCS, fn, messages=messages)  # warm-up: fill lazy caches
    gc.collect()
    gc.callbacks.append(count)
    try:
        smpi.launch(NPROCS, fn, messages=messages)
    finally:
        gc.callbacks.remove(count)
    return counts


@pytest.mark.parametrize("world", WORLDS)
def test_gc_passes_per_storm_world(world):
    version = sys.version_info[:2]
    if version not in PINS:
        pytest.skip(f"no GC-pass pin for Python {version[0]}.{version[1]} in PINS")
    assert gc.isenabled() and gc.get_threshold() == THRESHOLDS
    fn, messages = WORLDS[world]
    assert _passes(fn, messages) == PINS[version][world]
