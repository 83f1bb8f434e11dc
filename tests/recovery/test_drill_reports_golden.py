"""Pin the full stdout of the ``repro faults`` and ``repro recover`` drills.

The other CLI tests check substrings (``"outcome:   survived" in out``);
these pin every byte a drill prints — the plan banner, the report lines
in their order, the digests and, with ``--waits``, the timeline and the
wait-state table — for one run of each outcome:

* ``faults``: a clean ring (survived), the Module 8 handout drill on
  ``resilient`` (degraded) and a ring that loses a message (aborted);
* ``recover``: a clean k-means (survived), k-means losing rank 3
  mid-run, plain and with ``--waits`` (recovered), the same crash with
  a checkpoint every third iteration, so the survivors resume from an
  epoch older than their last iteration (recovered), and the same crash
  with no recovery budget (aborted).

The plans are the ones the CI ``docs`` and ``recovery-drills`` jobs
write.  The expected texts in ``data/drill_reports/`` were recorded with
the runtime whose fault and recovery reports each classified the run on
their own.  Regenerate (only ever against a known-good runtime!) with::

    PYTHONPATH=src python tests/recovery/test_drill_reports_golden.py
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from repro.__main__ import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "drill_reports"

PLANS = {
    "drill.toml": (
        "seed = 5\n\n[[drop]]\nsrc = 2\ndst = 0\n\n"
        "[[crash]]\nrank = 3\nat_time = 0.0\n"
    ),
    "lose.toml": "[[drop]]\nsrc = 0\ncount = 1\n",
    "crash_kmeans.toml": "seed = 7\n\n[[crash]]\nrank = 3\nat_time = 2.5e-5\n",
}

#: case name -> argv, with ``{plan}`` standing for the plans directory
CASES = {
    "faults_ring_survived": ["faults", "ring", "-n", "4"],
    "faults_resilient_degraded": ["faults", "resilient", "--plan", "{plan}/drill.toml"],
    "faults_ring_aborted": ["faults", "ring", "--plan", "{plan}/lose.toml"],
    "recover_kmeans_survived": ["recover", "kmeans"],
    "recover_kmeans_recovered": [
        "recover", "kmeans", "--plan", "{plan}/crash_kmeans.toml",
    ],
    "recover_kmeans_recovered_waits": [
        "recover", "kmeans", "--plan", "{plan}/crash_kmeans.toml", "--waits",
    ],
    "recover_kmeans_aborted": [
        "recover", "kmeans", "--plan", "{plan}/crash_kmeans.toml",
        "--max-recoveries", "0",
    ],
    "recover_kmeans_recovered_every3": [
        "recover", "kmeans", "--plan", "{plan}/crash_kmeans.toml",
        "-p", "checkpoint_every=3",
    ],
}


def _write_plans(directory: pathlib.Path) -> None:
    for name, text in PLANS.items():
        (directory / name).write_text(text)


def _argv(case: str, directory: pathlib.Path) -> list[str]:
    return [arg.replace("{plan}", str(directory)) for arg in CASES[case]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_drill_stdout_is_pinned(case, tmp_path, capsys):
    _write_plans(tmp_path)
    assert main(_argv(case, tmp_path)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")
    assert captured.out == expected


def test_every_pinned_case_has_its_text():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _write_plans(pathlib.Path(tmp))
        for name in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(_argv(name, pathlib.Path(tmp)))
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            (GOLDEN_DIR / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")
