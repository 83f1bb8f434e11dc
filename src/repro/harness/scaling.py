"""Strong-scaling and node-placement sweeps over simulated workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import smpi
from repro.cluster import ClusterSpec, Placement
from repro.errors import ValidationError
from repro.util.stats import parallel_efficiency, speedup_curve


@dataclass(frozen=True)
class ScalingResult:
    """Timing, speedup and efficiency over a rank-count sweep."""

    times: dict[int, float]

    @property
    def speedup(self) -> dict[int, float]:
        return speedup_curve(self.times)

    @property
    def efficiency(self) -> dict[int, float]:
        return parallel_efficiency(self.times)

    @property
    def max_speedup(self) -> float:
        return max(self.speedup.values())


def run_strong_scaling(
    worker: Callable[..., Any],
    p_list: Sequence[int],
    *,
    cluster: ClusterSpec | None = None,
    placement: str = "block",
    nodes: int | None = None,
    **kwargs: Any,
) -> ScalingResult:
    """Run ``worker(comm, **kwargs)`` at each rank count; fixed problem.

    ``placement`` is ``"block"`` (pack nodes, SLURM default) or
    ``"spread"`` (round-robin over ``nodes`` nodes).
    """
    if not p_list:
        raise ValidationError("p_list must be non-empty")
    cluster = cluster or ClusterSpec.monsoon_like(num_nodes=4)
    times: dict[int, float] = {}
    for p in p_list:
        if placement == "block":
            place = Placement.block(cluster, p)
        elif placement == "spread":
            place = Placement.spread(cluster, p, nodes=nodes)
        else:
            raise ValidationError(f"unknown placement {placement!r}")
        out = smpi.launch(p, worker, cluster=cluster, placement=place, **kwargs)
        times[p] = out.elapsed
    return ScalingResult(times=times)


def run_weak_scaling(
    worker: Callable[..., Any],
    p_list: Sequence[int],
    *,
    cluster: ClusterSpec | None = None,
    placement: str = "block",
    nodes: int | None = None,
    **kwargs: Any,
) -> "WeakScalingResult":
    """Weak scaling: the *per-rank* problem size is fixed, so total work
    grows with ``p`` and the ideal is constant runtime.

    The worker receives the same kwargs at every ``p`` — size its work
    per rank (e.g. Module 3's ``n_per_rank``).  Efficiency is
    ``T(p_min) / T(p)``.
    """
    strong = run_strong_scaling(
        worker, p_list, cluster=cluster, placement=placement, nodes=nodes, **kwargs
    )
    return WeakScalingResult(times=strong.times)


@dataclass(frozen=True)
class WeakScalingResult:
    """Timing and efficiency over a weak-scaling sweep."""

    times: dict[int, float]

    @property
    def efficiency(self) -> dict[int, float]:
        """``T(p_min)/T(p)`` — 1.0 means perfect weak scaling."""
        base = self.times[min(self.times)]
        if base <= 0:
            raise ValidationError("baseline time must be positive")
        return {p: base / t for p, t in sorted(self.times.items())}


def run_node_sweep(
    worker: Callable[..., Any],
    p: int,
    node_counts: Sequence[int],
    *,
    cluster: ClusterSpec | None = None,
    **kwargs: Any,
) -> dict[int, float]:
    """Fix the rank count; vary how many nodes the ranks spread over.

    The Module 4 activity-3 experiment: same p, different aggregate
    memory bandwidth.
    """
    if not node_counts:
        raise ValidationError("node_counts must be non-empty")
    cluster = cluster or ClusterSpec.monsoon_like(num_nodes=max(node_counts))
    out: dict[int, float] = {}
    for nodes in node_counts:
        place = Placement.spread(cluster, p, nodes=nodes)
        result = smpi.launch(p, worker, cluster=cluster, placement=place, **kwargs)
        out[nodes] = result.elapsed
    return out
