"""repro.faults — deterministic fault injection for the simulated cluster.

The paper's modules run on a *simulated* cluster, which makes failure a
first-class teaching topic instead of an ops accident: a
:class:`FaultPlan` declaratively schedules message drops, duplicates,
delays, straggler links and rank crashes against virtual time, and the
same seed + same plan reproduces the same faulted execution byte for
byte.  Module 8 (``docs/module8_faults.md``) builds its drills on this.

Typical use::

    from repro import smpi
    from repro.faults import FaultPlan

    plan = (FaultPlan(seed=7)
            .drop(src=1, dst=0, probability=0.5)
            .crash(rank=3, at_time=2e-3))
    out = smpi.launch(8, my_program, faults=plan, check=False)

Survival machinery lives on the smpi side: per-communicator error
handlers (``comm.set_errhandler(smpi.ERRORS_RETURN)``), ``timeout=``
deadlines on ``recv``/``wait`` raising
:class:`~repro.errors.SmpiTimeoutError`, and the
:func:`retry_with_backoff` helper here.  :func:`run_under_faults`
classifies a workload run as survived / degraded / aborted, and
:func:`fault_report` classifies a run already made (the ``repro
faults`` CLI, which renders that same run's timeline for ``--waits``).
It is the one classifier: :func:`repro.recovery.run_with_recovery`
derives its report from it and only adds ``recovered``.
"""

from repro.faults.plan import (
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    MessageSelector,
    SlowLinkFault,
)
from repro.faults.retry import HARD_STOP_ERRORS, retry_with_backoff
from repro.faults.runner import (
    FaultRunReport,
    canonical_trace,
    fault_report,
    run_under_faults,
    trace_digest,
)

__all__ = [
    "FaultPlan",
    "MessageSelector",
    "DropFault",
    "DuplicateFault",
    "DelayFault",
    "SlowLinkFault",
    "CrashFault",
    "retry_with_backoff",
    "HARD_STOP_ERRORS",
    "run_under_faults",
    "fault_report",
    "FaultRunReport",
    "canonical_trace",
    "trace_digest",
]
