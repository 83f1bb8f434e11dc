"""The verdict of ``benchmarks/perf_gate.py`` on synthetic perfbench results."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def result(wall_s, *, correct=True, failed=0):
    """One ``perfbench/run.py --trace 0`` result line."""
    return {
        "correct": correct,
        "attempted": 16,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}},
    }


def runs(parent, change):
    """Both workloads, five pairs, every run of a side reading the same."""
    return {
        workload: {"parent": [parent] * 5, "change": [change] * 5}
        for workload in perf_gate.WORKLOADS
    }


def test_equal_medians_pass():
    assert perf_gate.verdict(runs(result(0.5), result(0.5))) == []


def test_a_change_25_percent_slower_fails_on_each_workload():
    reasons = perf_gate.verdict(runs(result(0.5), result(0.625)))
    assert [r.split(":")[0] for r in reasons] == list(perf_gate.WORKLOADS)
    assert all("+25.0%" in r for r in reasons)


def test_the_bound_is_the_median_not_one_run():
    parent = [result(t) for t in (0.50, 0.50, 0.50, 0.50, 0.50)]
    change = [result(t) for t in (0.50, 0.52, 0.55, 0.90, 0.95)]
    assert perf_gate.verdict({"fanin": {"parent": parent, "change": change}}) == []


@pytest.mark.parametrize("side", perf_gate.SIDES)
@pytest.mark.parametrize("bad", [{"failed": 2}, {"correct": False}])
def test_a_run_that_is_not_correct_fails_naming_its_side(side, bad):
    sides = {"parent": result(0.5), "change": result(0.5), side: result(0.5, **bad)}
    reasons = perf_gate.verdict(runs(sides["parent"], sides["change"]))
    assert reasons and all(f"a {side} run is not correct" in r for r in reasons)


def test_a_run_without_a_result_fails():
    crashed = {"correct": False, "failed": 1, "error": "exit 2: no perfbench"}
    sides = {"parent": [crashed], "change": [result(0.5)]}
    assert perf_gate.verdict({"ring": sides}) == [
        "ring: a parent run is not correct (exit 2: no perfbench)"
    ]
