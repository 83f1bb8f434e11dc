"""Random fault plans always end in a declared outcome.

Hypothesis draws plans of drops, duplicates, delays, straggler links and
at most one crash, and runs each under every ``repro.obs`` workload and
both recoverable workloads at small sizes.  Whatever the plan, every
run must be classified into a declared outcome, must never find a
blocked rank that an event should already have made ready
(``wakeup_stats["missed"]``), must fail, if at all, with an exception
from the ``repro.errors`` hierarchy, and must finish promptly.
"""

import time

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.faults import FaultPlan, fault_report
from repro.faults.runner import OUTCOMES
from repro.obs.workloads import WORKLOADS, run_workload
from repro.recovery import RECOVERABLE, RECOVERY_OUTCOMES, run_recoverable

NPROCS = 4
#: wall-clock bound per run; the slowest run seen takes about 0.1 s
WALL_BOUND_S = 5.0

SMALL = {
    "ring": {},
    "pingpong": {"nbytes": 1024, "iterations": 2},
    "randomcomm": {"n_messages": 4},
    "distance": {"n": 64, "dims": 4, "tile": 16},
    "sort": {"n_per_rank": 200},
    "kmeans": {"n": 256, "k": 4, "max_iter": 3},
    "stencil": {"n_local": 64, "iterations": 3},
    "resilient": {"n_terms": 1024},
}
SMALL_RECOVERABLE = {
    "kmeans": {"n": 256, "k": 4, "max_iter": 3},
    "sort": {"n_per_rank": 200},
}

_rank = st.integers(-1, NPROCS - 1)  # -1 is the ANY wildcard
_selector = st.fixed_dictionaries({
    "src": _rank,
    "dst": _rank,
    "probability": st.sampled_from([1.0, 0.5, 0.1]),
    "count": st.sampled_from([None, 1, 3]),
})


@st.composite
def plans(draw):
    plan = FaultPlan(seed=draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(0, 2))):
        plan = plan.drop(**draw(_selector))
    for _ in range(draw(st.integers(0, 1))):
        plan = plan.duplicate(copies=draw(st.integers(1, 2)), **draw(_selector))
    for _ in range(draw(st.integers(0, 1))):
        plan = plan.delay(draw(st.sampled_from([1e-6, 1e-4, 2e-3])), **draw(_selector))
    for _ in range(draw(st.integers(0, 1))):
        plan = plan.slow_link(
            factor=draw(st.sampled_from([1.0, 4.0, 20.0])),
            per_byte=draw(st.sampled_from([0.0, 1e-9])),
            **draw(_selector),
        )
    if draw(st.booleans()):
        rank = draw(st.integers(0, NPROCS - 1))
        if draw(st.booleans()):
            plan = plan.crash(rank, at_time=draw(st.sampled_from([0.0, 1e-5, 1e-4])))
        else:
            plan = plan.crash(rank, on_nth_send=draw(st.integers(1, 3)))
    return plan


def _check(name, plan, out, outcome, outcomes, seconds):
    where = f"{name} under {plan}"
    assert outcome in outcomes, where
    assert out.world.wakeup_stats["missed"] == 0, where
    assert out.error is None or isinstance(out.error, ReproError), (
        f"{where}: {out.error!r}"
    )
    assert seconds < WALL_BOUND_S, f"{where}: took {seconds:.2f} s"


def test_the_fuzzed_workloads_are_all_of_them():
    assert set(SMALL) == set(WORKLOADS)
    assert set(SMALL_RECOVERABLE) == set(RECOVERABLE)


@settings(max_examples=60, deadline=None)
@given(plan=plans())
def test_random_plans_end_in_a_declared_outcome(plan):
    for name, params in SMALL.items():
        start = time.perf_counter()
        out = run_workload(name, nprocs=NPROCS, faults=plan, check=False, **params)
        report = fault_report(name, out)
        _check(name, plan, out, report.outcome, OUTCOMES, time.perf_counter() - start)
    for name, params in SMALL_RECOVERABLE.items():
        start = time.perf_counter()
        run = run_recoverable(name, plan, nprocs=NPROCS, **params)
        _check(
            name, plan, run.run, run.report.outcome, RECOVERY_OUTCOMES,
            time.perf_counter() - start,
        )
