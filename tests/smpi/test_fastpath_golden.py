"""Golden digest-identity stress test for the runtime fast paths.

The indexed mailbox and the single-runner scheduler are perf-only
changes: virtual-time behaviour must be byte-identical to the
seed-commit runtime.  This test pins that with 20 seeds of a 64-rank
random p2p/collective/wildcard mix (with and without a fault plan),
each reduced to one :func:`~repro.harness.stress.stress_digest` string
and compared against ``data/fastpath_golden.json`` — recorded with the
pre-fastpath runtime and committed.

Regenerate (only ever against a known-good runtime!) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/smpi/test_fastpath_golden.py -q

The runs also double as the lost-wakeup gate: a blocked rank that only
the scheduler's stall pass finds resolvable means an event forgot to
make it ready, and ``smpi.wakeups.missed`` must stay zero.
"""

import json
import os
import pathlib

import pytest

from repro import smpi
from repro.faults import FaultPlan
from repro.harness.stress import TAG_FANIN, TAG_SHIFT, mixed_workload, stress_digest

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "fastpath_golden.json"
NPROCS = 64
ROUNDS = 5
SEEDS = range(20)
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


def _fault_plan(seed: int) -> FaultPlan:
    """Deterministic timing faults only: delays and a straggler link
    perturb virtual time without dropping or duplicating messages, so
    the digest stays schedule-independent."""
    return (
        FaultPlan(seed=seed)
        .delay(2e-5, tag=TAG_SHIFT, probability=0.3)
        .delay(5e-5, tag=TAG_FANIN, probability=0.2)
        .slow_link(factor=3.0, src=1)
    )


def _case_key(seed: int, faulted: bool) -> str:
    return f"seed={seed},faults={'on' if faulted else 'off'}"


def _run_case(seed: int, faulted: bool) -> str:
    out = smpi.launch(
        NPROCS,
        mixed_workload,
        rounds=ROUNDS,
        seed=seed,
        faults=_fault_plan(seed) if faulted else None,
        trace=False,
    )
    missed = out.metrics.counter("smpi.wakeups.missed").value
    assert missed == 0, f"{missed} blocked ranks were found only by the stall pass"
    return stress_digest(out)


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file missing: {GOLDEN_PATH}")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
@pytest.mark.parametrize("seed", SEEDS)
def test_digest_matches_seed_commit_runtime(seed, faulted):
    digest = _run_case(seed, faulted)
    if REGEN:
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {
            "nprocs": NPROCS, "rounds": ROUNDS, "digests": {}
        }
        golden["digests"][_case_key(seed, faulted)] = digest
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return
    golden = _load_golden()
    assert golden["nprocs"] == NPROCS and golden["rounds"] == ROUNDS
    assert digest == golden["digests"][_case_key(seed, faulted)], (
        f"virtual-time behaviour diverged from the seed-commit runtime "
        f"for {_case_key(seed, faulted)}"
    )


def test_two_runs_agree_with_each_other():
    """Scheduler-independence sanity: the digest is stable run-to-run in
    this very process, not just against the recording."""
    assert _run_case(3, False) == _run_case(3, False)
    assert _run_case(3, True) == _run_case(3, True)
