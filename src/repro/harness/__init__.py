"""Experiment harness: scaling runners and the per-artifact registry.

Every table/figure/claim in DESIGN.md §4 has an experiment here;
``python -m repro all`` regenerates the whole evaluation, and tier-1
pins every report's text and checks.
"""

from repro.harness.scaling import (
    ScalingResult,
    WeakScalingResult,
    run_strong_scaling,
    run_weak_scaling,
    run_node_sweep,
)
from repro.harness.experiments import (
    Experiment,
    ExperimentReport,
    EXPERIMENTS,
    run_experiment,
)
from repro.harness.profile import (
    imbalance_from_run,
    memory_bound_fraction,
    profile_from_run,
)
from repro.harness.kernels import (
    histogram_cuts,
    kmeans_assign,
    kmeans_update,
    centroid_step,
    module_kernel_roofline,
    module_kernels,
    pairwise_block,
)
from repro.harness.stress import (
    fanin_storm,
    mixed_workload,
    p2p_storm,
    stress_digest,
)

__all__ = [
    "ScalingResult",
    "WeakScalingResult",
    "run_strong_scaling",
    "run_weak_scaling",
    "run_node_sweep",
    "Experiment",
    "ExperimentReport",
    "EXPERIMENTS",
    "run_experiment",
    "memory_bound_fraction",
    "profile_from_run",
    "imbalance_from_run",
    "module_kernel_roofline",
    "module_kernels",
    "pairwise_block",
    "kmeans_assign",
    "kmeans_update",
    "centroid_step",
    "histogram_cuts",
    "mixed_workload",
    "p2p_storm",
    "fanin_storm",
    "stress_digest",
]
