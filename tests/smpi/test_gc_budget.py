"""A garbage-collector and allocation budget for the message path.

Every message that leaves a GC-tracked object alive pushes the cyclic
collector towards its next pass, and each pass scans every young object.
These tests measure one traced 32-rank storm world, after an identical
warm-up world and a ``gc.collect()`` that zeroes the generation counts:

* the passes, per generation, that the world starts (``gc.callbacks``);
* the allocated blocks (``sys.getallocatedblocks()``) the finished
  world holds, counted as the blocks that dropping it and
  ``gc.collect()`` free, and the blocks left then against the count
  before the world started.  A per-message object the world keeps
  raises the first; one that outlives the world raises the second.
  Both are counted in a fresh interpreter, because inside the full
  suite they depend on what earlier tests left behind.  The second
  count is a ceiling, not an exact pin: one block that the interpreter
  allocated while importing is freed during some worlds and not others
  (``tracemalloc`` traces it to an import; 0 or 1 left in 16 fresh
  processes of each world).

The one-rank-at-a-time scheduler makes the passes and the blocks held
the same in every process.  The pins are recorded per ``sys.version_info[:2]``, because
the collector's accounting and the interpreter's allocations change
between Python releases; a version with no pin skips.  Before the tracer
stored its events flat and completed requests stopped building a
``Status``, Python 3.11 made ``[16, 1, 0]`` passes for the
``fanin_storm`` world and ``[22, 2, 0]`` for the ``p2p_storm`` one.  A
change that lowers a count lowers its pin here; one that raises it says
why.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import smpi
from repro.harness.stress import fanin_storm, p2p_storm

NPROCS = 32
WORLDS = {"fanin_storm": (fanin_storm, 100), "p2p_storm": (p2p_storm, 75)}
#: per world and Python version: passes of generations 0, 1 and 2, the
#: allocated blocks the finished world holds, and the most it may leave
PINS = {
    (3, 11): {
        "fanin_storm": {"passes": [6, 0, 0], "held": 7_823, "left": 1},
        "p2p_storm": {"passes": [3, 0, 0], "held": 16_955, "left": 1},
    },
}
#: the collector's default thresholds, which the pins assume
THRESHOLDS = (700, 10, 10)


def _measure(fn, messages: int) -> dict:
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    smpi.launch(NPROCS, fn, messages=messages)  # warm-up: fill lazy caches
    gc.collect()
    gc.callbacks.append(count)
    base = sys.getallocatedblocks()
    try:
        out = smpi.launch(NPROCS, fn, messages=messages)
    finally:
        gc.callbacks.remove(count)
    finished = sys.getallocatedblocks()
    del out
    gc.collect()
    dropped = sys.getallocatedblocks()
    return {"passes": counts, "held": finished - dropped, "left": dropped - base}


def _pin(world: str, what: str) -> dict:
    version = sys.version_info[:2]
    if version not in PINS:
        pytest.skip(f"no {what} pin for Python {version[0]}.{version[1]} in PINS")
    assert gc.isenabled() and gc.get_threshold() == THRESHOLDS
    return PINS[version][world]


@pytest.mark.parametrize("world", WORLDS)
def test_gc_passes_per_storm_world(world):
    pin = _pin(world, "GC-pass")
    assert _measure(*WORLDS[world])["passes"] == pin["passes"]


@pytest.mark.parametrize("world", WORLDS)
def test_allocated_blocks_per_storm_world(world):
    pin = _pin(world, "allocated-block")
    src = Path(smpi.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, __file__, world], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    got = json.loads(proc.stdout)
    assert got["held"] == pin["held"] and got["left"] <= pin["left"]


if __name__ == "__main__":
    print(json.dumps(_measure(*WORLDS[sys.argv[1]])))
