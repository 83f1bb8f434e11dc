"""Named, traceable module workloads for the ``repro trace`` CLI.

Each entry wraps one canonical module activity in a uniform runner
signature ``(nprocs, **params) -> RunResult``, so the CLI (and tests)
can profile any module by name::

    from repro.obs.workloads import run_workload
    result = run_workload("kmeans", nprocs=4, k=8)

Module imports happen inside the runners: :mod:`repro.obs` is imported
by the smpi runtime itself (for the metrics registry), so importing the
module solutions at the top level here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smpi.runtime import RunResult


@dataclass(frozen=True)
class Workload:
    """One named, runnable module workload."""

    name: str
    module: str
    description: str
    default_nprocs: int
    runner: Callable[..., "RunResult"]


def _run_ring(nprocs: int, *, value: Any = None, **run: Any) -> "RunResult":
    from repro import smpi
    from repro.modules.module1_comm import ring_exchange

    return smpi.launch(nprocs, ring_exchange, value=value, **run)


def _run_pingpong(
    nprocs: int, *, nbytes: int = 65536, iterations: int = 10, **run: Any
) -> "RunResult":
    from repro import smpi
    from repro.modules.module1_comm import ping_pong

    return smpi.launch(nprocs, ping_pong, nbytes, iterations, **run)


def _run_randomcomm(
    nprocs: int, *, n_messages: int = 8, seed: int = 0, **run: Any
) -> "RunResult":
    from repro import smpi
    from repro.modules.module1_comm import random_communication_two_phase

    return smpi.launch(nprocs, random_communication_two_phase, n_messages, seed, **run)


def _run_distance(
    nprocs: int, *, n: int = 1024, dims: int = 32, tile: int = 128, **run: Any
) -> "RunResult":
    from repro import smpi
    from repro.modules.module2_distance import distributed_distance_matrix

    return smpi.launch(
        nprocs, distributed_distance_matrix, n=n, dims=dims, tile=tile, **run
    )


def _run_sort(
    nprocs: int, *, n_per_rank: int = 10_000, distribution: str = "uniform",
    seed: int = 1, **run: Any
) -> "RunResult":
    from repro import smpi
    from repro.modules.module3_sort import sort_activity

    return smpi.launch(
        nprocs, sort_activity, n_per_rank=n_per_rank,
        distribution=distribution, method="equal", seed=seed, **run
    )


def _run_kmeans(
    nprocs: int, *, n: int = 4096, k: int = 8, dims: int = 2,
    method: str = "weighted", max_iter: int = 10, **run: Any
) -> "RunResult":
    from repro import smpi
    from repro.modules.module5_kmeans import kmeans_distributed

    return smpi.launch(
        nprocs, kmeans_distributed, n=n, k=k, dims=dims,
        method=method, max_iter=max_iter, **run
    )


def _run_stencil(
    nprocs: int, *, n_local: int = 4096, iterations: int = 8,
    overlap: bool = False, **run: Any
) -> "RunResult":
    from repro import smpi
    from repro.modules.module6_overlap import stencil_blocking, stencil_overlapped

    fn = stencil_overlapped if overlap else stencil_blocking
    return smpi.launch(nprocs, fn, n_local=n_local, iterations=iterations, **run)


def _run_resilient(
    nprocs: int, *, n_terms: int = 1 << 16, shard_timeout: float = 2e-3,
    attempts: int = 2, **run: Any
) -> "RunResult":
    from repro import smpi
    from repro.faults.drills import resilient_partial_sum

    return smpi.launch(
        nprocs, resilient_partial_sum, n_terms,
        shard_timeout=shard_timeout, attempts=attempts, **run
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ring", "module1", "non-blocking ring exchange", 8, _run_ring
        ),
        Workload(
            "pingpong", "module1", "two-rank ping-pong (64 KiB)", 2, _run_pingpong
        ),
        Workload(
            "randomcomm", "module1", "random communication, counts exchange",
            4, _run_randomcomm,
        ),
        Workload(
            "distance", "module2", "tiled distributed distance matrix",
            4, _run_distance,
        ),
        Workload(
            "sort", "module3", "distribution sort, equal-width splitters",
            4, _run_sort,
        ),
        Workload(
            "kmeans", "module5", "distributed k-means (weighted reduction)",
            4, _run_kmeans,
        ),
        Workload(
            "stencil", "module6", "1-D Jacobi halo exchange (blocking)",
            4, _run_stencil,
        ),
        Workload(
            "resilient", "module8", "fault-tolerant partial sum (timeouts + retry)",
            4, _run_resilient,
        ),
    )
}


def run_workload(name: str, nprocs: Optional[int] = None, **params: Any) -> "RunResult":
    """Run a named workload under tracing; returns the full run result."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise ValidationError(f"unknown workload {name!r}; known: {known}") from None
    n = workload.default_nprocs if nprocs is None else nprocs
    if n < 1:
        raise ValidationError(f"nprocs must be >= 1, got {n}")
    return workload.runner(n, **params)
