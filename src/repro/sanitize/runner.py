"""Drive sanitized runs: workloads, pitfalls, and the corpus sweep.

The replay protocol (the tentpole's race confirmation): run once with
``match_order="first"``; if any wildcard receive had more than one
concurrently matchable sender, run again with ``match_order="last"`` and
compare outcome digests (:meth:`Sanitizer.outcome_digest`, built on the
byte-identity machinery of :mod:`repro.recovery.checkpoint`).  Different
digests confirm the race — the program's answer depends on message
timing; identical digests refute it (e.g. Module 3's sort receives
buckets with ``ANY_SOURCE`` but sorts them, so any arrival order yields
the same result).  Both runs are deterministic, so the verdict — and the
rendered report — is byte-identical across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ReproError, ValidationError
from repro.sanitize.analyze import analyze
from repro.sanitize.findings import Finding, SanitizeReport
from repro.sanitize.sanitizer import Sanitizer, capture


def _observe(invoke: Callable[[], Any], match_order: str) -> Sanitizer:
    """Run ``invoke`` under an ambient sanitizer; the world's abort (if
    any) is captured by the ``on_world_finish`` hook, not re-raised."""
    san = Sanitizer(match_order)
    error = None
    with capture(san):
        try:
            invoke()
        except Exception as exc:  # noqa: BLE001 - the hook recorded the abort
            error = exc
    if not san.finished or san.world is None:
        if isinstance(error, ReproError):
            raise error  # bad input, e.g. an unknown workload: no world ran
        raise ValidationError(
            "sanitized runner did not execute an smpi world to completion"
        )
    return san


def _emit_obs(san: Sanitizer, findings: list[Finding]) -> None:
    """Flow findings into the obs layer: one ``sanitize``-category trace
    event and one labelled counter per finding."""
    world = san.world
    assert world is not None
    now = world.elapsed()
    for f in findings:
        rank = f.rank if f.rank >= 0 else 0
        world.tracer.record(
            rank, "sanitize", f"finding_{f.code}", 0, now, now
        )
        world.metrics.counter(
            "smpi.sanitize.findings", code=f.code, severity=f.severity
        ).inc()


def sanitize_invoke(
    label: str, invoke: Callable[[], Any], *, replay: bool = True
) -> SanitizeReport:
    """Sanitize an arbitrary runner (must execute exactly one world)."""
    san = _observe(invoke, "first")
    racy = any(m.racy for m in san.matches)
    verdict: Optional[bool] = False
    replayed = False
    if racy:
        if replay:
            san_replay = _observe(invoke, "last")
            verdict = san.outcome_digest() != san_replay.outcome_digest()
            replayed = True
        else:
            verdict = None  # candidates degrade to warnings
    findings, stats = analyze(san, race_verdict=verdict)
    _emit_obs(san, findings)
    assert san.world is not None
    return SanitizeReport(
        workload=label,
        nprocs=san.world.nprocs,
        makespan=san.world.elapsed(),
        findings=tuple(findings),
        stats=stats,
        error=type(san.error).__name__ if san.error is not None else "",
        replayed=replayed,
    )


def sanitize_workload(
    name: str,
    nprocs: Optional[int] = None,
    *,
    replay: bool = True,
    faults: Any = None,
    **params: Any,
) -> SanitizeReport:
    """Sanitize a named ``repro.obs.workloads`` workload.

    ``faults`` takes a :class:`~repro.faults.FaultPlan`: the sanitizer
    runs cleanly under injection — leaks of crashed ranks are suppressed,
    and the fault outcome lands in the report's ``error`` field.
    """
    from repro.obs.workloads import run_workload

    def invoke() -> Any:
        return run_workload(
            name, nprocs=nprocs, faults=faults, check=False, **params
        )

    return sanitize_invoke(name, invoke, replay=replay)


def sanitize_pitfall(name: str, *, replay: bool = True) -> SanitizeReport:
    """Sanitize one entry of the :mod:`repro.modules.pitfalls` corpus."""
    from repro.modules.pitfalls import pitfall

    p = pitfall(name)
    return sanitize_invoke(p.name, p.runner, replay=replay)


@dataclass(frozen=True)
class CorpusEntry:
    """One pitfall's sweep result: expected diagnostic vs what came out."""

    name: str
    expected: str
    got: tuple[str, ...]
    report: SanitizeReport

    @property
    def ok(self) -> bool:
        return self.expected in self.got


def sanitize_corpus() -> list[CorpusEntry]:
    """Run every cataloged pitfall through the sanitizer.

    The corpus is the regression fixture: each entry must surface its
    documented ``sanitize_code`` diagnostic (tests and the
    ``repro sanitize --pitfalls`` CLI both assert this).
    """
    from repro.modules.pitfalls import PITFALLS

    entries = []
    for p in PITFALLS:
        report = sanitize_pitfall(p.name)
        entries.append(
            CorpusEntry(
                name=p.name,
                expected=p.sanitize_code,
                got=report.codes(),
                report=report,
            )
        )
    return entries
