"""Self-tests of the benchmark: span attribution, names, and the oracle.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, GOLDEN, PER_LAYER, score, spawn  # noqa: E402
from spans import ClosureError, Recorder, fold  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _busy(ms: float) -> None:
    end = time.perf_counter() + ms / 1e3
    while time.perf_counter() < end:
        pass


def _duration(rec: Recorder, name: str) -> int:
    return sum(t1 - t0 for _, _, n, t0, t1, _, _ in rec.spans if n == name)


def test_spans_nest_and_attribute_self_time():
    rec = Recorder()
    trace = rec.wrap("smpi.trace", lambda: _busy(2))

    def match():
        _busy(1)
        trace()
        trace()

    message = rec.wrap("smpi.message", match)

    def send():
        _busy(1)
        message()

    comm = rec.wrap("smpi.communicator", send)

    def launch():
        # A rank thread whose outermost span links back to this launch.
        rank = rec.wrap("rank", comm, parent=rec.current())
        worker = threading.Thread(target=rank)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    rec.wrap("iteration", rec.wrap("smpi.runtime.launch", launch))()
    out = fold(rec.spans)

    assert out["smpi.trace.events"] == 2
    assert out["smpi.message.calls"] == 1 and out["smpi.communicator.calls"] == 1
    assert out["smpi.trace.record_s"] == _duration(rec, "smpi.trace") / 1e9
    assert out["smpi.message.match_s"] == (
        _duration(rec, "smpi.message") - _duration(rec, "smpi.trace")
    ) / 1e9
    assert out["smpi.communicator.self_s"] == (
        _duration(rec, "smpi.communicator") - _duration(rec, "smpi.message")
    ) / 1e9
    # The rank thread runs inside the launch, so its span is join wait,
    # not launch work, and is not subtracted from the launch twice.
    assert out["smpi.runtime.join_wait_s"] == _duration(rec, "rank") / 1e9
    assert out["smpi.runtime.launch_s"] == (
        _duration(rec, "smpi.runtime.launch") - _duration(rec, "rank")
    ) / 1e9
    assert out["smpi.trace.record_s"] >= 0.004
    parts = sum(
        v for k, v in out.items()
        if k.endswith(("_s", ".s")) and k != "thread_time_s"
    )
    assert parts == pytest.approx(out["thread_time_s"], abs=1e-9)


def test_fold_rejects_spans_that_do_not_nest():
    # A child (2) that outlasts its parent (1) on the same thread.
    spans = [
        (2, 1, "smpi.trace", 0, 50, 1, ""),
        (1, 0, "smpi.communicator", 10, 40, 1, ""),
    ]
    with pytest.raises(ClosureError):
        fold(spans)


def test_printed_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == PER_LAYER
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "fanin",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_altered_digest_counts_as_failed():
    expected = json.loads(GOLDEN.read_text())["fanin"]
    result = spawn("fanin", 0, trace=False)
    assert score(result, expected)[:2] == (len(expected), 0)
    altered = dict(expected, **{"fanin:3": "0" * 64})
    attempted, failed, reasons = score(result, altered)
    assert failed == 1 and failed / attempted > 0
    assert reasons == ["fanin:3: digest differs from the seed commit"]
