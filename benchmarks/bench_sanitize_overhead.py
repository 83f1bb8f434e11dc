"""Sanitizer — the zero-overhead-when-off contract.

Every sanitizer hook in the runtime (`World`, `Comm`, `Request`) gates
on ``world.sanitizer is not None``, so a world launched without a
sanitizer must pay **nothing**: the virtual makespan of the heaviest
module workloads stays within 3% of itself run-to-run (it is in fact
byte-identical — virtual time is deterministic — and the stronger
equality is asserted too; the 3% bound is the documented contract,
kept slack so the assertion survives intentional cost-model changes).

With the sanitizer *on*, virtual time may legitimately move — held
wildcard receives match at quiescence instead of eagerly — but the
*answer* must not: a clean program sanitizes to the same results.
"""

import numpy as np
import pytest

from repro.obs.workloads import run_workload
from repro.sanitize import sanitize_workload

NPROCS = 4
KM = dict(n=4096, k=8, max_iter=10)
SORT = dict(n_per_rank=5000)


def _record(lines: list[str]) -> None:
    print(
        f"\n{'=' * 72}\n[PASS] SAN: sanitizer overhead contract\n{'=' * 72}\n"
        + "\n".join(lines) + "\n"
    )


def test_sanitizer_off_costs_nothing(benchmark):
    """The acceptance bound from docs/module9_sanitizer.md: with no
    sanitizer attached, the virtual-time premium is under 3%."""
    base = run_workload("kmeans", nprocs=NPROCS, **KM)

    again = benchmark.pedantic(
        lambda: run_workload("kmeans", nprocs=NPROCS, **KM),
        rounds=3,
        iterations=1,
    )
    assert again.elapsed <= base.elapsed * 1.03
    assert again.elapsed == base.elapsed  # deterministic: exactly free
    _record([
        f"sanitizer off: kmeans (np={NPROCS}) virtual makespan "
        f"{again.elapsed:.6g} s == plain baseline — premium 0% (bound: 3%)",
    ])


def test_sanitized_sort_keeps_the_answer(benchmark):
    """Quiescent wildcard matching must not change what a correct
    program computes — only observe it."""
    base = run_workload("sort", nprocs=NPROCS, **SORT)

    report = benchmark.pedantic(
        lambda: sanitize_workload("sort", nprocs=NPROCS, **SORT),
        rounds=3,
        iterations=1,
    )
    assert report.outcome == "clean"
    assert report.stats["race_candidates"] > 0  # the wildcards were held
    assert report.stats["races_refuted"] == report.stats["race_candidates"]
    # the sanitized run sorted the same data to the same global count
    assert report.nprocs == base.world.nprocs
    assert base.results[0].global_count == NPROCS * SORT["n_per_rank"]
    _record([
        f"sanitizer on : sort (np={NPROCS}) {report.outcome}, "
        f"{report.stats['races_refuted']}/{report.stats['race_candidates']} "
        f"race candidates refuted by replay, virtual makespan "
        f"{report.makespan:.6g} s (plain: {base.elapsed:.6g} s)",
    ])


def test_sanitized_kmeans_matches_plain_centroids(benchmark):
    """No wildcards in k-means: the sanitized run is the plain run,
    observed — same centroids, same makespan."""
    base = run_workload("kmeans", nprocs=NPROCS, **KM)

    from repro.sanitize.runner import _observe

    san = benchmark.pedantic(
        lambda: _observe(
            lambda: run_workload("kmeans", nprocs=NPROCS, **KM), "first"
        ),
        rounds=3,
        iterations=1,
    )
    assert san.error is None
    assert np.allclose(
        san.results[0].centroids, base.results[0].centroids
    )
    assert san.world.elapsed() == pytest.approx(base.elapsed, rel=1e-12)
