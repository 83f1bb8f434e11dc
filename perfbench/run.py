"""The repo benchmark: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload ring --seed 1 --seconds 10 --trace 0

Each iteration runs in a fresh child interpreter (``child.py``), one at a
time; this process only spawns, waits and aggregates.  With ``--trace 0``
the result holds the end-to-end metrics, measured untraced.  With
``--trace 1`` it alternates untraced and traced iterations and reports
per-layer metrics from the traced ones, plus the tracing overhead.

Every operation's virtual-time digest is compared with ``golden.json``,
recorded on the seed commit; a mismatch, a failed program check, a
missed wakeup or a crashed child counts the operation as failed.  See
``NOTES.md`` for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import CPU_METRICS, EXTRA_COUNTS, LAYERS
from workloads import COUNTERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: setup_s is the median of at least this many child start-ups per run.
SETUP_SAMPLES = 10
#: no iteration starts once this much of the run has passed, and a child
#: still running at RUN_DEADLINE_S is killed: a run must end within 180 s,
#: and an ``artifacts`` iteration takes 7 to 12 s here.
RUN_BUDGET_S = 120.0
RUN_DEADLINE_S = 170.0
#: ``fastest_cpu`` times PROBE_REPEATS loops of PROBE_LOOPS steps, about
#: 5 ms each, on every CPU before each child starts.
PROBE_LOOPS = 20_000
PROBE_REPEATS = 3
#: a child runs on one CPU (``child.pin_to_one_cpu``), so numeric
#: libraries must not start a thread pool sized for the whole machine.
CHILD_ENV = {
    **os.environ,
    **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "msgs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics of a traced run, in print order.
PER_LAYER = (
    [metric for pair in LAYERS.values() for metric in pair if metric is not None]
    + ["smpi.runtime.launch_s", "smpi.runtime.join_wait_s", "smpi.runtime.launches",
       "unattributed_s", "thread_time_s"]
    + list(EXTRA_COUNTS)
    + list(COUNTERS)
    + list(CPU_METRICS.values())
    + ["interp.gc_pause_s", "interp.gc_collections", "trace.overhead_s"]
)


def _probe() -> float:
    """Seconds this process takes for a fixed few milliseconds of work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    return time.perf_counter() - t0


def fastest_cpu() -> int:
    """The CPU that runs a short fixed loop fastest right now; -1 if the
    OS cannot pin.

    A vCPU of the shared host runs about 1.6 times slower while the
    hyperthread it shares a core with is busy, and each vCPU switches
    between the two speeds every few seconds, independently of the
    others.  Starting each child on whichever CPU is fast at the time
    keeps that host load out of the timings more often than not.
    """
    if not hasattr(os, "sched_setaffinity"):
        return -1
    cpus = os.sched_getaffinity(0)
    speed = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe() for _ in range(PROBE_REPEATS))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(speed, key=speed.get)


def spawn(
    workload: str, seed: int, trace: bool, setup_only: bool = False,
    timeout: float = RUN_DEADLINE_S,
) -> dict:
    """Run one child iteration; returns its result (``error`` if it died)."""
    cpu = fastest_cpu()
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--cpu", str(cpu), "--spawned-at", str(time.monotonic_ns()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, env=CHILD_ENV
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def score(result: dict, expected: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one child result against the
    recorded digests of its workload."""
    if "error" in result:
        return len(expected), len(expected), [result["error"]]
    reasons = []
    seen = set()
    for name, digest, ok in result["ops"]:
        seen.add(name)
        if not ok:
            reasons.append(f"{name}: program check failed")
        elif expected.get(name) != digest:
            reasons.append(f"{name}: digest differs from the seed commit")
        elif result["missed"].get(name, 0) > 0:
            reasons.append(f"{name}: {result['missed'][name]} missed wakeups")
    missing = [name for name in expected if name not in seen]
    reasons += [f"{name}: not run" for name in missing]
    return len(result["ops"]) + len(missing), len(reasons), reasons


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def fastest(results: list[dict]) -> float:
    """The wall seconds of one iteration at the run's best speed: each
    operation's fastest time across the iterations, summed.

    Every iteration does the same operations, so an operation that took
    longer in one iteration than in another was slowed by something
    outside the program: the shared host runs 30 to 70 % slower for tens
    of seconds at a time, long enough to cover most of a run and so to
    move its median iteration.  Taken per operation, the minimum needs
    only one fast instance of each operation, not one fast iteration.
    """
    return sum(min(r["op_s"][op] for r in results) for op in results[0]["op_s"])


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Medians of the traced iterations' layer metrics and counters."""
    out = {
        name: median([{**r["layers"], **r["counters"]}[name] for r in traced])
        for name in PER_LAYER[:-1]
    }
    out["trace.overhead_s"] = fastest(traced) - fastest(plain)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads(GOLDEN.read_text())[args.workload]

    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        for trace in (False, True) if args.trace else (False,):
            left = RUN_DEADLINE_S - (time.monotonic() - start)
            (traced if trace else plain).append(spawn(args.workload, args.seed, trace, timeout=left))
        now = time.monotonic()
        longest = max(longest, now - t0)
        # Start another pass only if it should end within the run.
        if now - start + longest > min(args.seconds, RUN_BUDGET_S):
            break
    setups = [r["setup_s"] for r in plain + traced if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES and time.monotonic() - start < RUN_BUDGET_S + 30:
        result = spawn(args.workload, args.seed, False, setup_only=True, timeout=30)
        if "setup_s" in result:
            setups.append(result["setup_s"])

    attempted = failed = 0
    for result in plain + traced:
        a, f, reasons = score(result, expected)
        attempted, failed = attempted + a, failed + f
        for reason in reasons:
            print(f"FAILED {args.workload} seed={args.seed}: {reason}")
    good = [r for r in plain if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    correct = failed == 0
    if args.trace:
        # The span wrappers must change nothing the program computes.
        digests = {json.dumps(r["ops"]) for r in good + good_traced}
        if len(digests) > 1:
            correct = False
            print("FAILED traced and untraced iterations computed different results")
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in per_layer(good_traced, good).items()
        } if good_traced and good else {}
    else:
        wall_s = fastest(good)
        values = {
            "setup_s": median(setups),
            "wall_s": wall_s,
            "msgs_per_s": good[0]["messages"] / wall_s,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"{args.workload} seed={args.seed} " + " ".join(f"{k}={v:.6g}" for k, v in values.items()))
        print(f"{args.workload} iteration wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in good))
    print(
        f"{args.workload} iterations={len(plain)} traced={len(traced)} "
        f"failed_frac={failed / max(attempted, 1):.6g} ({failed}/{attempted})"
    )
    if args.trace and metrics:
        report_closure(args.workload, metrics, good, good_traced)
    print(json.dumps({
        "correct": bool(correct and metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def report_closure(workload: str, metrics: dict, plain: list[dict], traced: list[dict]) -> None:
    """Print the attribution: layer self times, block wait, join wait and
    unattributed time against the traced thread time.

    Every traced child already checked closure exactly (``spans.fold``
    fails the iteration otherwise); the table shows medians, whose sum
    is close to, not exactly, the median total.
    """
    total = metrics["thread_time_s"]["value"]
    parts = {
        name: m["value"] for name, m in metrics.items()
        if m["unit"] == "s" and not name.startswith(("interp.", "trace.")) and name != "thread_time_s"
        and name not in CPU_METRICS.values()
    }
    print(
        f"closure {workload}: exact in {len(traced)} traced iterations; medians: "
        f"parts {sum(parts.values()):.6f} s of {total:.6f} s thread time"
    )
    for name, value in sorted(parts.items(), key=lambda kv: -kv[1]):
        if value > 0:
            print(f"  {name:32s} {value:12.6f} s {100 * value / total:6.2f} %")
    print(
        f"tracing overhead {workload}: {metrics['trace.overhead_s']['value']:.6f} s per iteration "
        f"(fastest wall_s traced {fastest(traced):.6f}, untraced {fastest(plain):.6f})"
    )


if __name__ == "__main__":
    sys.exit(main())
