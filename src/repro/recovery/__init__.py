"""repro.recovery — surviving rank crashes: ULFM drills + checkpointing.

Module 8, part 2.  :mod:`repro.faults` makes the simulated cluster
*break*; this package makes workloads *survive* the breakage:

* :class:`CheckpointStore` — deterministic in-memory checkpoint memory
  (epoch-versioned, virtual-clock-stamped, blake2b-digested) that
  outlives rank crashes, plus rollback-cost accounting;
* :func:`run_with_recovery` — the catch → revoke → shrink → agree
  harness that re-executes a recoverable body on the shrunken
  communicator; its :class:`RecoveryReport` is
  :func:`repro.faults.fault_report`'s verdict (survived / degraded /
  aborted), raised to ``recovered`` when the run finished after a
  shrink, plus the recovery counters;
* :data:`~repro.recovery.workloads.RECOVERABLE` — the named recoverable
  module workloads behind the ``repro recover`` CLI.

The ULFM survival primitives themselves (``Comm.revoke`` /
``Comm.shrink`` / ``Comm.agree`` / ``Comm.failure_ack``) live on
:class:`repro.smpi.communicator.Comm`.
"""

from repro.recovery.checkpoint import Checkpoint, CheckpointStore, state_digest
from repro.recovery.harness import (
    RECOVERY_OUTCOMES,
    RecoveryReport,
    RecoveryRun,
    run_with_recovery,
)
from repro.recovery.workloads import (
    RECOVERABLE,
    RecoverableWorkload,
    run_recoverable,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "state_digest",
    "RECOVERY_OUTCOMES",
    "RecoveryReport",
    "RecoveryRun",
    "run_with_recovery",
    "RECOVERABLE",
    "RecoverableWorkload",
    "run_recoverable",
]
