"""One benchmark iteration in a fresh interpreter; prints one JSON line.

A fresh process per iteration keeps the program's in-process caches
(``module4_range._INDEX_CACHE``, ``_shared_datasets_cached``,
``edu.reconstruct._solve_cached``) from carrying one iteration's work
into the next, and makes ``ru_maxrss`` one iteration's peak.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/child.py --workload ring --seed 1 --trace 0 \\
        --spawned-at <time.monotonic_ns() of the parent at spawn> [--cpu N]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _ping(comm) -> int:
    if comm.rank == 0:
        comm.send(1, dest=1)
        return 0
    return comm.recv(source=0)


def set_up() -> None:
    """Import the package and its drill subpackages, then launch 2 ranks."""
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.recovery  # noqa: F401
    import repro.sanitize  # noqa: F401
    from repro import smpi

    smpi.launch(2, _ping)


def iterate(workload: str, seed: int, trace: bool) -> dict:
    """Run one iteration of ``workload`` in this (already set up) process."""
    from spans import Recorder, cpu_times, fold, instrument
    from workloads import WORKLOADS, Tally, install_world_hook

    tally = Tally()
    install_world_hook(tally)
    run = WORKLOADS[workload]
    rec = None
    if trace:
        rec = Recorder(op_source=tally)
        instrument(rec)
        run = rec.wrap("iteration", run)
    t0 = time.perf_counter()
    ops = run(seed, tally)
    end = time.perf_counter()
    out = {
        "wall_s": end - t0,
        "op_s": tally.op_seconds(end),
        "messages": tally.messages,
        "missed": tally.missed,
        "ops": [[op.name, op.digest, op.ok] for op in ops],
        "counters": tally.counters,
    }
    if rec is not None:
        layers = fold(rec.spans)
        layers.update(rec.counts)
        layers["interp.gc_pause_s"] = rec.gc_pause_ns / 1e9
        layers["interp.gc_collections"] = rec.gc_collections
        layers.update(cpu_times(rec.cpu_spans))
        out["layers"] = layers
    return out


def pin_to_one_cpu(cpu: int) -> None:
    """Run every thread of this process on CPU ``cpu`` (none if -1).

    Only one rank thread holds the interpreter lock at a time, so one CPU
    loses no throughput; spread over several CPUs, each lock handoff
    waits for the OS to wake a thread on another CPU, and iteration times
    then follow the host's scheduler rather than the program.
    """
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, default=-1)
    args = parser.parse_args()
    pin_to_one_cpu(args.cpu)
    set_up()
    result: dict = {"setup_s": (time.monotonic_ns() - args.spawned_at) / 1e9}
    if not args.setup_only:
        result.update(iterate(args.workload, args.seed, bool(args.trace)))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
