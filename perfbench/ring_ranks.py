"""Traced ``ring`` at 8 and at 32 ranks: which layer's cost grows with ranks?

Each rank count runs traced iterations in fresh interpreters, alternating
8 and 32 ranks REPEATS times, with the same number of messages per world
(4,800).  It prints the median of every layer's time per message, in
microseconds of thread time, next to the CPU time the rank threads used
(``interp.rank_cpu_s``) and spent parked or taking the world lock::

    python3 perfbench/ring_ranks.py

The answer is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import workloads
from child import iterate, set_up
from run import PER_LAYER

MESSAGES_PER_WORLD = 4800
RANKS = (8, 32)
REPEATS = 3


def traced_ring(ranks: int) -> dict:
    workloads.RING_RANKS = ranks
    workloads.RING_MESSAGES = MESSAGES_PER_WORLD // (2 * ranks)
    set_up()
    return iterate("ring", 0, trace=True)


def main() -> int:
    if len(sys.argv) == 2:
        print(json.dumps(traced_ring(int(sys.argv[1]))))
        return 0
    runs: dict[int, list[dict]] = {r: [] for r in RANKS}
    for _ in range(REPEATS):
        for ranks in RANKS:
            proc = subprocess.run(
                [sys.executable, __file__, str(ranks)],
                capture_output=True, text=True, check=True, timeout=170,
            )
            runs[ranks].append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def per_message(ranks: int, name: str) -> float:
        return statistics.median(
            1e6 * r["layers"][name] / r["messages"] for r in runs[ranks]
        )

    print(f"{'us per message (median of %d)' % REPEATS:34s}" + "".join(f"{r:>10d} ranks" for r in RANKS))
    for name in PER_LAYER:
        if name.endswith(("_s", ".s")) and name != "trace.overhead_s":
            if any(per_message(r, name) for r in RANKS):
                print(f"{name:34s}" + "".join(f"{per_message(r, name):16.2f}" for r in RANKS))
    walls = [statistics.median(r["wall_s"] for r in runs[ranks]) for ranks in RANKS]
    print(f"{'wall_s per iteration':34s}" + "".join(f"{w:16.3f}" for w in walls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
