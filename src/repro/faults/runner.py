"""Run workloads under a fault plan and classify the outcome.

The contract the Module 8 drills (and the ``repro faults`` CLI) rely
on: under *any* plan, a workload reaches one of three defined outcomes —
it never hangs, because lost messages end in deadlock detection, a
timeout, or a crashed-peer error:

* ``survived`` — ran to completion and no fault fired;
* ``degraded`` — ran to completion with faults injected (the program
  tolerated them);
* ``aborted`` — the world died (crash under ``ERRORS_ARE_FATAL``,
  deadlock from a dropped rendezvous, an unhandled error, ...).

:func:`trace_digest` hashes the *canonical* trace — per-rank event
streams in program order with message ids renumbered by first
appearance — which is invariant under thread scheduling, so the same
seed + same plan ⇒ the same digest, run after run.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smpi.runtime import RunResult

OUTCOMES = ("survived", "degraded", "aborted")


def canonical_trace(events: list[Any], nprocs: int) -> bytes:
    """Serialise trace events into a scheduling-independent byte string.

    Each rank's *subsequence* of the event list is its program order, so:
    group by rank (one pass), and remap message ids to their order of
    first appearance in that grouped stream.  The world's scheduler
    already makes the interleaving and the ids deterministic; the remap
    keeps digests recorded when ranks ran free (and ids were
    process-global) valid.
    """
    by_rank: dict[int, list[Any]] = defaultdict(list)
    for e in events:
        by_rank[e.rank].append(e)
    remap: dict[int, int] = {}
    lines: list[bytes] = []
    for rank in range(nprocs):
        for e in by_rank.get(rank, ()):
            if e.msg_id >= 0 and e.msg_id not in remap:
                remap[e.msg_id] = len(remap)
            mid = remap.get(e.msg_id, -1) if e.msg_id >= 0 else -1
            lines.append(
                (
                    f"{rank}|{e.category}|{e.primitive}|{e.nbytes}|"
                    f"{e.t_start:.12g}|{e.t_end:.12g}|{e.peer}|{e.cid}|{mid}"
                ).encode()
            )
    return b"\n".join(lines)


def trace_digest(events: list[Any], nprocs: int) -> str:
    """sha256 of the canonical trace (see :func:`canonical_trace`)."""
    return hashlib.sha256(canonical_trace(events, nprocs)).hexdigest()


@dataclass
class FaultRunReport:
    """Everything ``repro faults`` reports about one faulted run."""

    workload: str
    nprocs: int
    outcome: str  # "survived" | "degraded" | "aborted"
    makespan: float
    digest: str
    error: Optional[str] = None
    fault_events: dict[str, int] = field(default_factory=dict)
    crashed_ranks: tuple[int, ...] = ()
    result: Any = None

    def lines(self) -> list[str]:
        """Render for the CLI."""
        return self._head_lines() + self._tail_lines()

    def _head_lines(self) -> list[str]:
        out = [
            f"workload:  {self.workload} (np={self.nprocs})",
            f"outcome:   {self.outcome}",
            f"makespan:  {self.makespan:.6g} virtual s",
        ]
        if self.fault_events:
            injected = ", ".join(
                f"{k}={v}" for k, v in sorted(self.fault_events.items())
            )
            out.append(f"faults:    {injected}")
        else:
            out.append("faults:    none injected")
        if self.crashed_ranks:
            out.append(f"crashed:   ranks {list(self.crashed_ranks)}")
        return out

    def _tail_lines(self) -> list[str]:
        out = [] if self.error is None else [f"error:     {self.error}"]
        out.append(f"trace:     sha256:{self.digest[:16]}…")
        return out


def run_under_faults(
    name: str,
    plan: FaultPlan,
    nprocs: Optional[int] = None,
    **params: Any,
) -> FaultRunReport:
    """Run a named :mod:`repro.obs.workloads` workload under ``plan``.

    Always returns a report — workload exceptions become the
    ``aborted`` outcome rather than propagating (``check=False`` runs
    keep the world attached, so the trace of the failed run is still
    analysed and hashed).
    """
    from repro.obs.workloads import run_workload

    out = run_workload(name, nprocs=nprocs, faults=plan, check=False, **params)
    return fault_report(name, out)


def fault_report(name: str, out: "RunResult") -> FaultRunReport:
    """Classify one ``check=False`` run of workload ``name``."""
    world = out.world
    events = world.tracer.events
    fault_events: dict[str, int] = {}
    for e in events:
        if e.category == "fault":
            fault_events[e.primitive] = fault_events.get(e.primitive, 0) + 1
    if out.error is not None:
        outcome = "aborted"
        error = f"{type(out.error).__name__}: {out.error}"
    else:
        outcome = "degraded" if fault_events else "survived"
        error = None
    return FaultRunReport(
        workload=name,
        nprocs=world.nprocs,
        outcome=outcome,
        makespan=world.elapsed(),
        digest=trace_digest(events, world.nprocs),
        error=error,
        fault_events=fault_events,
        crashed_ranks=tuple(sorted(world.crashed)),
        result=None if out.error is not None else out.results,
    )
