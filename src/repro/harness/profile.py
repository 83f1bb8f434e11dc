"""Bridge measured module runs into the batch-scheduler's workload model.

:func:`profile_from_run` estimates a
:class:`~repro.slurm.job.WorkloadProfile` from a finished
:class:`~repro.smpi.runtime.RunResult`: the base runtime is the virtual
makespan, and the memory demand is the fraction of traced compute time
that was bandwidth-limited (reconstructed from each compute event's byte
count and the rank's bandwidth share).  This is how a student would
close the loop of the Figure 1 exercise: *measure* your program, then
*predict* how co-scheduling will treat it.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.obs.analysis import LoadImbalance, load_imbalance
from repro.slurm.job import WorkloadProfile
from repro.smpi.runtime import RunResult


def _world_rank(result: RunResult, rank: int) -> int:
    """Map a world-communicator rank to the world rank the trace records.

    The world communicator's group is registered first (cid 0) at launch,
    so the mapping is explicit rather than assumed identity-by-
    construction; out-of-range ranks are a caller error, not an empty
    trace.
    """
    group = result.world.group_of(0)
    if not 0 <= rank < len(group):
        raise ValidationError(
            f"rank {rank} out of range for a world of {len(group)} ranks"
        )
    return group[rank]


def memory_bound_fraction(result: RunResult, rank: int = 0) -> float:
    """Fraction of a rank's busy time spent limited by memory bandwidth.

    For each traced compute event, the bandwidth-limited portion is
    ``nbytes / bandwidth_share`` (capped by the event duration); waits
    and communication also count as non-compute-bound time, since they
    too leave the cores idle.
    """
    world_rank = _world_rank(result, rank)
    events = result.tracer.events_for(world_rank)
    if not events:
        raise ValidationError("no trace events — was tracing enabled?")
    bandwidth = result.world.arbiter.bandwidth_share(world_rank)
    busy = 0.0
    memory_limited = 0.0
    for e in events:
        busy += e.duration
        if e.category == "compute":
            memory_limited += min(e.duration, e.nbytes / bandwidth)
        else:
            memory_limited += e.duration  # waiting is not compute-bound
    if busy <= 0:
        raise ValidationError("trace has no elapsed time")
    return min(1.0, memory_limited / busy)


def profile_from_run(result: RunResult, rank: int = 0) -> WorkloadProfile:
    """Summarize a run as a schedulable workload profile."""
    return WorkloadProfile(
        base_runtime=max(result.elapsed, 1e-12),
        mem_demand=memory_bound_fraction(result, rank),
    )


def imbalance_from_run(result: RunResult) -> LoadImbalance:
    """Load-imbalance score of a finished run (see :mod:`repro.obs`)."""
    return load_imbalance(result.tracer)
