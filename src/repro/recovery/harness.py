"""Run workloads that survive rank crashes: catch → revoke → shrink → agree.

:func:`run_with_recovery` is the fault-drill harness for Module 8
part 2.  A *recoverable body* is a rank function with the signature
``body(comm, store, attempt, **params)``: on ``attempt == 0`` it runs
fresh (and checkpoints as it goes); on later attempts it decides —
deterministically, from the store's contents — whether to roll back to
the last globally consistent checkpoint epoch and adopt the dead ranks'
state, or to restart fresh on the shrunken communicator.

The recovery protocol around the body is the canonical ULFM loop::

    try:
        return body(comm, store, attempt, **params)
    except proc-failure or revoked:
        comm.revoke()          # interrupt everyone's pending operations
        comm.failure_ack()     # acknowledge the failed ranks
        comm = comm.shrink()   # survivors build a smaller communicator
        comm.agree(True)       # consensus: everyone is here, go again

Outcomes extend the ``repro.faults`` triple with ``recovered``:
completed *after* at least one shrink.  The report starts from
:func:`repro.faults.fault_report`'s verdict and raises it to
``recovered`` when the run was not aborted and shrank, so ``degraded``
now means faults fired but no recovery was needed, and ``aborted``
still means the world died (e.g. the failure budget
``max_recoveries`` was exhausted).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import smpi
from repro.errors import (
    RankCrashedError,
    SmpiRevokedError,
    ValidationError,
    _RankSelfCrash,
)
from repro.faults.plan import FaultPlan
from repro.faults.runner import FaultRunReport, fault_report
from repro.recovery.checkpoint import CheckpointStore

RECOVERY_OUTCOMES = ("survived", "recovered", "degraded", "aborted")


@dataclass
class RecoveryReport(FaultRunReport):
    """Everything ``repro recover`` reports about one recovery drill:
    the :class:`~repro.faults.FaultRunReport` of the run, with
    ``outcome`` one of :data:`RECOVERY_OUTCOMES`, plus the recovery
    counters.  ``revokes`` and ``shrinks`` count per-rank calls, so one
    recovery on three survivors reads ``revokes=3 shrinks=3``."""

    revokes: int = 0
    shrinks: int = 0
    rollbacks: int = 0
    checkpoints: int = 0
    rollback_time: float = 0.0
    lineage: str = ""

    def lines(self) -> list[str]:
        """Render for the CLI (matches the ``repro faults`` style)."""
        return [
            *self._head_lines(),
            f"recovery:  revokes={self.revokes} shrinks={self.shrinks} "
            f"rollbacks={self.rollbacks} checkpoints={self.checkpoints}",
            f"rollback:  {self.rollback_time:.6g} virtual s of lost work",
            *self._tail_lines(),
            f"lineage:   blake2b:{self.lineage[:16]}…",
        ]


@dataclass
class RecoveryRun:
    """A :class:`RecoveryReport` plus the raw run and checkpoint store."""

    report: RecoveryReport
    run: "smpi.RunResult"
    store: CheckpointStore


def _recovering_main(
    comm: Any,
    store: CheckpointStore,
    body: Callable[..., Any],
    max_recoveries: int,
    params: dict[str, Any],
) -> Any:
    """Per-rank recovery loop wrapped around a recoverable body."""
    comm.set_errhandler(smpi.ERRORS_RETURN)
    for attempt in range(max_recoveries + 1):
        try:
            return body(comm, store, attempt, **params)
        except (RankCrashedError, SmpiRevokedError) as exc:
            if isinstance(exc, _RankSelfCrash):
                raise  # this rank IS the casualty; nothing to recover
            if attempt == max_recoveries:
                raise
            comm.revoke()
            comm.failure_ack()
            comm = comm.shrink()
            comm.set_errhandler(smpi.ERRORS_RETURN)
            # Consensus barrier: every survivor is on the new comm and
            # agrees to re-execute before anyone touches the store again.
            comm.agree(True)
    raise AssertionError("unreachable")  # pragma: no cover


def run_with_recovery(
    body: Callable[..., Any],
    nprocs: int,
    *,
    faults: Optional[FaultPlan] = None,
    store: Optional[CheckpointStore] = None,
    max_recoveries: int = 2,
    name: str = "custom",
    **params: Any,
) -> RecoveryRun:
    """Run a recoverable body on ``nprocs`` ranks under a fault plan.

    Never raises for workload failures: like
    :func:`repro.faults.run_under_faults`, an aborting run is classified
    ``aborted`` with the world attached for post-mortem analysis.
    """
    if max_recoveries < 0:
        raise ValidationError(
            f"max_recoveries must be >= 0, got {max_recoveries}"
        )
    if store is None:
        store = CheckpointStore()
    out = smpi.launch(
        nprocs,
        _recovering_main,
        store,
        body,
        max_recoveries,
        params,
        faults=faults,
        check=False,
    )
    calls = Counter(
        e.primitive for e in out.world.tracer.events if e.category == "recovery"
    )
    report = RecoveryReport(
        **vars(fault_report(name, out)),
        revokes=calls["MPIX_Comm_revoke"],
        shrinks=calls["MPIX_Comm_shrink"],
        rollbacks=store.rollbacks,
        checkpoints=store.saves,
        rollback_time=store.rollback_time,
        lineage=store.lineage_digest(),
    )
    if report.shrinks and report.outcome != "aborted":
        report.outcome = "recovered"
    return RecoveryRun(report=report, run=out, store=store)
