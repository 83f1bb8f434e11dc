"""Wall-clock throughput of the smpi runtime fast paths.

Runs two stress patterns from :mod:`repro.harness.stress` at 2/8/32/64
ranks and reports real (wall-clock) messages per second plus the
runtime's wakeup accounting:

* ``ring`` (:func:`~repro.harness.stress.p2p_storm`) — latency-bound
  neighbour exchange: shallow queues, measures per-message constant
  overhead and scheduler wake latency.
* ``fanin`` (:func:`~repro.harness.stress.fanin_storm`) —
  matching-bound all-to-one flood: a deep multi-source unexpected queue
  drained by exact-source receives, the workload the ``(cid, source,
  tag)`` mailbox index exists for.

Each pattern runs twice: with ``trace=False`` (the runtime alone) and,
as ``<pattern>_traced``, with ``trace=True`` — ``smpi.launch``'s default,
the path every module, CLI command and test takes.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime_fastpath.py \
        --out BENCH_runtime.json                 # measure + write
    PYTHONPATH=src python benchmarks/bench_runtime_fastpath.py \
        --ranks 2 8 --check BENCH_runtime.json   # CI regression gate

The committed ``BENCH_runtime.json`` is the baseline the CI ``bench``
job gates against.  Raw msgs/s is machine-dependent, so the gate
compares the *calibrated score* — msgs/s divided by the host's measured
single-thread Python throughput (``calib_kops``) — with a generous
threshold; see docs/performance.md for how to read the file.

Every run also asserts ``smpi.wakeups.missed == 0``: a nonzero count
means the scheduler's stall pass found a blocked rank that an event
should already have made ready, a lost-wakeup bug.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import smpi
from repro.harness.stress import fanin_storm, p2p_storm

#: (pattern name, workload, {ranks: messages-per-rank}) — message counts
#: chosen so each cell runs for roughly comparable wall time.
PATTERNS = (
    ("ring", p2p_storm, {2: 2000, 8: 800, 32: 200, 64: 100}),
    ("fanin", fanin_storm, {2: 2000, 8: 400, 32: 100, 64: 50}),
)
DEFAULT_RANKS = (2, 8, 32, 64)
#: (trace flag, pattern-name suffix): untraced cells first, then traced.
TRACE_MODES = ((False, ""), (True, "_traced"))


def calibrate(loops: int = 300_000) -> float:
    """Single-thread Python ops throughput (kops/s) of this host.

    A deliberately boring integer/attribute loop: the same interpreter
    work the runtime's hot path is made of.  Dividing msgs/s by this
    gives a score that is roughly machine-independent, which is what the
    CI regression gate compares.
    """
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i & 7
        dt = time.perf_counter() - t0
        best = max(best, loops / dt / 1000.0)
    return best


def run_cell(workload, nprocs: int, messages: int, reps: int, trace: bool) -> dict:
    """Median-of-``reps`` msgs/s for one (pattern, ranks, trace) cell."""
    rates = []
    wakeups = {}
    for _ in range(reps):
        t0 = time.perf_counter()
        out = smpi.launch(nprocs, workload, messages=messages, trace=trace)
        dt = time.perf_counter() - t0
        total = sum(out.results)
        rates.append(total / dt)
        wakeups = {
            key: out.metrics.counter(f"smpi.wakeups.{key}").value
            for key in ("targeted", "broadcast", "missed")
        }
        assert wakeups["missed"] == 0, (
            f"{wakeups['missed']} blocked ranks were found only by the stall pass"
        )
    return {
        "ranks": nprocs,
        "messages_total": total,
        "msgs_per_s": round(statistics.median(rates)),
        "msgs_per_s_best": round(max(rates)),
        "wakeups": {k: int(v) for k, v in wakeups.items()},
    }


def run_bench(ranks=DEFAULT_RANKS, reps: int = 5) -> dict:
    calib = calibrate()
    results: dict = {
        "bench": "runtime_fastpath",
        "calib_kops": round(calib, 1),
        "reps": reps,
        "patterns": {},
    }
    for (trace, suffix), (name, workload, sizes) in itertools.product(TRACE_MODES, PATTERNS):
        name += suffix
        cells = []
        for nprocs in ranks:
            if nprocs not in sizes:
                continue
            cell = run_cell(workload, nprocs, sizes[nprocs], reps, trace)
            cell["score"] = round(cell["msgs_per_s"] / calib, 2)
            cells.append(cell)
            print(
                f"{name:12s} ranks={nprocs:3d} "
                f"msgs/s={cell['msgs_per_s']:>9,} score={cell['score']:7.2f} "
                f"wakeups(targeted={cell['wakeups']['targeted']}, "
                f"broadcast={cell['wakeups']['broadcast']}, "
                f"missed={cell['wakeups']['missed']})"
            )
        results["patterns"][name] = cells
    return results


def check_regression(results: dict, baseline_path: Path, threshold: float) -> int:
    """Exit code 1 if any measured cell's calibrated score fell more than
    ``threshold`` below the committed baseline."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, cells in results["patterns"].items():
        base_cells = {c["ranks"]: c for c in baseline["patterns"].get(name, [])}
        for cell in cells:
            base = base_cells.get(cell["ranks"])
            if base is None:
                continue
            floor = base["score"] * (1.0 - threshold)
            status = "ok " if cell["score"] >= floor else "REG"
            print(
                f"{status} {name:12s} ranks={cell['ranks']:3d} "
                f"score={cell['score']:.2f} baseline={base['score']:.2f} "
                f"floor={floor:.2f}"
            )
            if cell["score"] < floor:
                failures.append((name, cell["ranks"]))
    if failures:
        print(f"regression: {failures} fell >{threshold:.0%} below baseline")
        return 1
    print("no regression against baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=int, nargs="+", default=list(DEFAULT_RANKS))
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path, help="write BENCH_runtime.json here")
    parser.add_argument(
        "--check", type=Path,
        help="compare against this baseline JSON; exit 1 on >threshold regression",
    )
    parser.add_argument("--threshold", type=float, default=0.2)
    args = parser.parse_args(argv)

    results = run_bench(tuple(args.ranks), reps=args.reps)
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.check:
        return check_regression(results, args.check, args.threshold)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
