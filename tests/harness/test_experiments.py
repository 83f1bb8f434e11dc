"""Tests for the experiment registry.

Every experiment body runs end to end, at full size, in
``test_artifact_pins.py``; here we check the registry contract and the
report's summary line.
"""

import pytest

from repro.errors import ValidationError
from repro.harness import EXPERIMENTS, run_experiment
from repro.harness.experiments import ExperimentReport


def test_registry_covers_every_artifact():
    assert set(EXPERIMENTS) == {
        "T1", "T2", "T3", "T4", "F1", "F2",
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
        "E9", "E10",  # future-work extension modules
        "A1", "A2", "A3",  # model ablations
    }


def test_every_entry_has_claim_and_title():
    for exp in EXPERIMENTS.values():
        assert exp.title
        assert exp.paper_claim


def test_unknown_experiment():
    with pytest.raises(ValidationError):
        run_experiment("T9")


def test_summary_line_format():
    report = run_experiment("T3")
    line = report.summary_line()
    assert line.startswith("[PASS] T3:")


def test_failed_check_reported():
    report = ExperimentReport("X", "demo", "text", {"good": True, "bad": False})
    assert not report.passed
    assert "bad" in report.summary_line()
    assert "good" not in report.summary_line().split("failed:")[1]
