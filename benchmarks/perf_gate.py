"""The wall-time gate: this tree's ``perfbench`` timings against its parent's.

Usage::

    python benchmarks/perf_gate.py PARENT_DIR [--out BENCH_runtime.json]

``PARENT_DIR`` is a checkout of the parent commit.  The gate runs the
unchanged ``perfbench/run.py --trace 0`` of both checkouts on ``ring``,
``fanin`` and ``drills``, ``PAIRS`` times each, alternating which side
runs first.
It exits 1 if any run reports ``correct: false`` or ``failed > 0`` (a
wrong digest, a failed program check, a missed wakeup or a crashed
child), naming the side, or if the change's median ``wall_s`` is more
than ``THRESHOLD`` above the parent's on any workload.

The parent is timed back to back with the change because no committed
baseline fits a 20 % bound: the same code timed at two different
times on one 2-vCPU VM read ``fanin`` ``wall_s`` 0.639 s and 0.537 s.
``--out`` writes the run's record: each side's per-pair and median ``wall_s``,
their ratio, the verdict, both git shas and the Python version.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: pairs of runs per workload, each side one ``perfbench/run.py`` run
PAIRS = 5
#: ``--seconds`` of each run: about four iterations of either storm
SECONDS = 10
#: the two storms, ``ring`` latency-bound and ``fanin`` matching-bound, and
#: ``drills``, the only one that reaches the fault, checkpoint, recovery
#: and sanitizer layers
WORKLOADS = ("ring", "fanin", "drills")
#: the most the change's median ``wall_s`` may exceed the parent's
THRESHOLD = 0.20
SIDES = ("parent", "change")


def run_perfbench(root: Path, workload: str, seed: int) -> dict:
    """The JSON result line of one ``perfbench/run.py --trace 0`` run of
    checkout ``root``; a run that printed none counts as failed."""
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
        ],
        capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "failed": 1, "error": f"exit {proc.returncode}: {tail}"}


def wall_s(result: dict) -> float | None:
    return result.get("metrics", {}).get("wall_s", {}).get("value")


def medians(sides: dict[str, list[dict]]) -> dict[str, float] | None:
    """Each side's median ``wall_s``; None unless both sides timed a run."""
    times = {side: [t for t in map(wall_s, sides[side]) if t is not None] for side in SIDES}
    if not all(times.values()):
        return None
    return {side: statistics.median(times[side]) for side in SIDES}


def verdict(runs: dict[str, dict[str, list[dict]]]) -> list[str]:
    """Why the change fails the gate; empty if it passes.

    ``runs[workload][side]`` lists the perfbench result lines of that
    workload and side (``parent`` or ``change``).
    """
    reasons = []
    for workload, sides in runs.items():
        for side in SIDES:
            for result in sides[side]:
                if not result.get("correct") or result.get("failed", 0) > 0:
                    detail = result.get("error") or (
                        f"{result.get('failed')} of {result.get('attempted')} operations failed"
                    )
                    reasons.append(f"{workload}: a {side} run is not correct ({detail})")
        median = medians(sides)
        if median is not None:
            parent, change = median["parent"], median["change"]
            if change > parent * (1 + THRESHOLD):
                reasons.append(
                    f"{workload}: median wall_s {change:.4f} s is {change / parent - 1:+.1%} "
                    f"against the parent's {parent:.4f} s (bound +{THRESHOLD:.0%})"
                )
    return reasons


def record(runs: dict[str, dict[str, list[dict]]], reasons: list[str], parent: Path) -> dict:
    """The ``--out`` record of one gate run."""
    workloads = {}
    for workload, sides in runs.items():
        entry = {f"{side}_wall_s": [wall_s(r) for r in sides[side]] for side in SIDES}
        median = medians(sides)
        if median is not None:
            entry.update({f"{side}_median_s": median[side] for side in SIDES})
            entry["ratio"] = median["change"] / median["parent"]
        workloads[workload] = entry
    return {
        "gate": "benchmarks/perf_gate.py",
        "python": platform.python_version(),
        "parent_sha": git_sha(parent),
        "change_sha": git_sha(ROOT),
        "pairs": PAIRS,
        "seconds": SECONDS,
        "threshold": THRESHOLD,
        "workloads": workloads,
        "verdict": "fail" if reasons else "pass",
        "reasons": reasons,
    }


def git_sha(root: Path) -> str | None:
    """The commit checked out at ``root``, suffixed ``-dirty`` if the
    working tree differs from it."""
    proc = subprocess.run(
        ["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40",
         "--exclude=*"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or None


def _shown(side: str, result: dict) -> str:
    t = wall_s(result)
    return f"{side} {t:.4f} s" if t is not None else f"{side} failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR",
                        help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, help="write the gate's JSON record here")
    args = parser.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} has no perfbench/run.py")

    roots = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {workload: {side: [] for side in SIDES} for workload in WORKLOADS}
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in WORKLOADS:
            for side in order:
                result = run_perfbench(roots[side], workload, seed=pair + 1)
                runs[workload][side].append(result)
            print(
                f"pair {pair + 1}/{PAIRS} {workload:6s} ({order[0]} first): "
                + "  ".join(_shown(side, runs[workload][side][-1]) for side in SIDES),
                flush=True,
            )

    reasons = verdict(runs)
    out = record(runs, reasons, args.parent)
    for workload, entry in out["workloads"].items():
        if "ratio" in entry:
            print(
                f"{workload}: median wall_s parent {entry['parent_median_s']:.4f} s, "
                f"change {entry['change_median_s']:.4f} s, ratio {entry['ratio']:.3f}"
            )
    for reason in reasons:
        print(f"FAIL {reason}")
    print(f"gate: {out['verdict']}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 1 if reasons else 0


if __name__ == "__main__":
    raise SystemExit(main())
