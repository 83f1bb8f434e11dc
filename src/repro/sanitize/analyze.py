"""Turn a finished :class:`~repro.sanitize.sanitizer.Sanitizer` log into findings.

Three analysis families, mirroring the tentpole taxonomy:

* **error triage** — the run aborted; classify the exception (and, for a
  deadlock, post-mortem the matching queues and the deadlock snapshot)
  into a *call-site* diagnostic: ``collective-mismatch``,
  ``tag-mismatch``, ``unmatched-recv``, ``collective-dropout``, …
* **races** — racy wildcard matches (more than one concurrently
  matchable sender at resolution time), confirmed or refuted by the
  runner's replay verdict.
* **leaks** — requests never completed, split/dup communicators never
  freed, isend buffers mutated before completion.  Leak warnings are
  suppressed for aborted runs (the abort is the story) and for crashed
  ranks (fault injection kills mid-flight requests by design).
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.errors import (
    DeadlockError,
    InvalidRankError,
    SMPIError,
    TruncationError,
)
from repro.sanitize.findings import Finding, finding
from repro.sanitize.sanitizer import Sanitizer
from repro.smpi.datatypes import ANY_SOURCE, ANY_TAG

_RANK_RE = re.compile(r"rank (\d+)")


def _origin_rank(origin: str) -> int:
    m = _RANK_RE.search(origin)
    return int(m.group(1)) if m else -1


def analyze(
    san: Sanitizer, *, race_verdict: Optional[bool] = None
) -> tuple[list[Finding], dict[str, int]]:
    """All findings plus summary stats for one observed run.

    ``race_verdict``: ``True`` — the replay changed the outcome (races
    are confirmed errors); ``False`` — the replay matched byte-for-byte
    (races refuted, no finding); ``None`` — replay disabled, racy
    matches degrade to ``message-race-candidate`` warnings.
    """
    findings: list[Finding] = []
    findings.extend(_error_findings(san))
    findings.extend(_race_findings(san, race_verdict))
    findings.extend(_buffer_findings(san))
    if san.error is None:
        findings.extend(_leak_findings(san))
    return sorted(findings), _stats(san, race_verdict)


def _stats(san: Sanitizer, race_verdict: Optional[bool]) -> dict[str, int]:
    racy = sum(1 for m in san.matches if m.racy)
    stats = {
        "requests": len(san.requests),
        "requests_completed": sum(1 for r in san.requests if r.completed),
        "collective_calls": len(san.collectives),
        "wildcard_matches": len(san.matches),
        "race_candidates": racy,
        "races_confirmed": racy if race_verdict is True else 0,
        "races_refuted": racy if race_verdict is False else 0,
        "comms_created": len(san.comms),
        "comms_freed": sum(1 for c in san.comms.values() if c.freed),
    }
    return stats


# -- error triage ---------------------------------------------------------


def _error_findings(san: Sanitizer) -> list[Finding]:
    err = san.error
    if err is None:
        return []
    assert san.world is not None
    rank = _origin_rank(san.world.abort_origin)
    msg = str(err)
    if isinstance(err, TruncationError):
        return [finding("truncation", rank, msg)]
    if isinstance(err, InvalidRankError):
        return [finding("invalid-rank", rank, msg)]
    if isinstance(err, DeadlockError):
        return _deadlock_findings(san)
    if isinstance(err, SMPIError):
        if "collective mismatch at call #" in msg or "joined the same collective twice" in msg:
            detail = _call_detail(san, msg, "kind", "called")
            return [finding("collective-mismatch", rank, detail)]
        if "mismatched roots across ranks" in msg:
            detail = _call_detail(san, msg, "root", "used root")
            return [finding("collective-root-mismatch", rank, detail)]
        if "must supply a sequence of exactly" in msg or "requires every rank to supply" in msg:
            return [finding("collective-count-mismatch", rank, msg)]
    return [finding("abort", rank, f"{type(err).__name__}: {msg}")]


def _call_detail(san: Sanitizer, msg: str, field: str, verb: str) -> str:
    """Augment the runtime's mismatch error with what every rank passed
    as ``field`` (``kind`` or ``root``) at the first call where ranks
    disagree on it, each value phrased as ``verb value``."""
    for cid in sorted({c.cid for c in san.collectives}):
        by_index: dict[int, dict[Any, list[int]]] = {}
        for c in san.collectives:
            if c.cid == cid:
                by_index.setdefault(c.index, {}).setdefault(
                    getattr(c, field), []
                ).append(c.comm_rank)
        for index in sorted(by_index):
            values = by_index[index]
            if len(values) > 1:
                detail = "; ".join(
                    f"rank(s) {sorted(ranks)} {verb} {value}"
                    for value, ranks in sorted(values.items())
                )
                return f"{msg} [call #{index} on communicator {cid}: {detail}]"
    return msg


def _deadlock_findings(san: Sanitizer) -> list[Finding]:
    """Post-mortem a deadlock into call-site diagnostics.

    The matching queues survive the abort (a receive whose wait raised
    leaves its posted entry behind), so the snapshot of who-was-blocked
    plus the queues of wrong-tag/never-sent messages tell the story.
    """
    snap = san.deadlock
    world = san.world
    assert world is not None
    if snap is None:  # deadlock predates this sanitizer? report it plainly
        return [finding("deadlock", -1, str(san.error).replace("\n", "; "))]
    exited = set(range(world.nprocs)) - snap.live - snap.crashed
    findings: list[Finding] = []

    # Collective dropout: some ranks parked inside a collective while the
    # laggards already exited without ever entering it.
    coll_blocked = {
        r for r, d in snap.blocked.items() if "collective call #" in d
    }
    if coll_blocked:
        for cid in sorted({c.cid for c in san.collectives}):
            group = world.group_of(cid)
            counts = {wr: 0 for wr in group}
            last_kind = ""
            for c in san.collectives:
                if c.cid == cid:
                    counts[c.world_rank] = c.index + 1
                    last_kind = c.kind
            max_calls = max(counts.values(), default=0)
            dropouts = sorted(
                wr
                for wr in group
                if counts[wr] < max_calls and wr in exited
            )
            if dropouts and max_calls > 0:
                findings.append(
                    finding(
                        "collective-dropout",
                        dropouts[0],
                        f"{last_kind} (collective call #{max_calls - 1}) on "
                        f"communicator {cid}: rank(s) {dropouts} returned "
                        f"without entering it — the other ranks wait forever",
                    )
                )

    # Point-to-point post-mortem: every still-posted, unmatched receive of
    # a blocked rank either waits on a wrong tag, a finished sender, or a
    # genuinely circular dependency.
    for rank in sorted(snap.blocked):
        if rank in coll_blocked:
            continue
        for pr in world.queues[rank].posted:
            if pr.matched:
                continue
            if pr.source != ANY_SOURCE:
                wrong_tags = sorted(
                    {
                        env.tag
                        for env in world.queues[rank].unexpected
                        if env.source == pr.source
                        and env.comm_cid == pr.comm_cid
                        and pr.tag != ANY_TAG
                        and env.tag != pr.tag
                    }
                )
                if wrong_tags:
                    findings.append(
                        finding(
                            "tag-mismatch",
                            rank,
                            f"rank {rank} waits for tag {pr.tag} from rank "
                            f"{pr.source}, but rank {pr.source} sent tag(s) "
                            f"{wrong_tags} — send/recv tags do not match",
                        )
                    )
                elif pr.source in exited:
                    findings.append(
                        finding(
                            "unmatched-recv",
                            rank,
                            f"rank {rank} waits for a message from rank "
                            f"{pr.source}, which already returned without "
                            f"sending one — the receive can never match",
                        )
                    )
            elif snap.live <= {rank} | snap.crashed:
                findings.append(
                    finding(
                        "unmatched-recv",
                        rank,
                        f"rank {rank} waits on a wildcard receive but every "
                        f"other rank has finished — no sender remains",
                    )
                )

    if not findings:
        detail = "; ".join(
            f"rank {r}: {snap.blocked[r]}" for r in sorted(snap.blocked)
        )
        findings.append(
            finding(
                "deadlock",
                -1,
                f"every live rank is blocked and no message can arrive — {detail}",
            )
        )
    return findings


# -- races ----------------------------------------------------------------


def _race_findings(
    san: Sanitizer, race_verdict: Optional[bool]
) -> list[Finding]:
    racy = [m for m in san.matches if m.racy]
    if not racy or race_verdict is False:
        return []
    findings = []
    for rank in sorted({m.rank for m in racy}):
        mine = [m for m in racy if m.rank == rank]
        senders = sorted({s for m in mine for s in m.candidate_sources})
        base = (
            f"{len(mine)} wildcard receive(s) on rank {rank} had more than "
            f"one concurrently matchable sender (ranks {senders})"
        )
        if race_verdict is True:
            findings.append(
                finding(
                    "message-race",
                    rank,
                    base
                    + "; replaying with the opposite match order changed the "
                    "program's result — the outcome depends on message timing",
                )
            )
        else:
            findings.append(
                finding(
                    "message-race-candidate",
                    rank,
                    base + "; replay disabled, race neither confirmed nor refuted",
                )
            )
    return findings


# -- leaks & buffer safety -------------------------------------------------


def _buffer_findings(san: Sanitizer) -> list[Finding]:
    findings = []
    for rank in sorted(
        {r.rank for r in san.requests if r.buffer_mutated}
    ):
        n = sum(1 for r in san.requests if r.rank == rank and r.buffer_mutated)
        findings.append(
            finding(
                "buffer-mutation",
                rank,
                f"{n} isend buffer(s) on rank {rank} were modified before "
                f"wait/test completed the send — MPI forbids touching a "
                f"send buffer until the request completes",
            )
        )
    return findings


def _leak_findings(san: Sanitizer) -> list[Finding]:
    findings = []
    crashed = san.world.crashed if san.world is not None else set()
    leaked = [
        r for r in san.requests if not r.completed and r.rank not in crashed
    ]
    for rank in sorted({r.rank for r in leaked}):
        mine = [r for r in leaked if r.rank == rank]
        kinds = ", ".join(
            f"{sum(1 for r in mine if r.kind == k)} {k}"
            for k in ("isend", "irecv")
            if any(r.kind == k for r in mine)
        )
        findings.append(
            finding(
                "request-leak",
                rank,
                f"{len(mine)} nonblocking request(s) on rank {rank} ({kinds}) "
                f"were never completed with wait/test — the operation may "
                f"never have happened",
            )
        )
    by_cid: dict[int, list[int]] = {}
    for rec in san.comms.values():
        if not rec.freed and rec.world_rank not in crashed:
            by_cid.setdefault(rec.cid, []).append(rec.world_rank)
    for cid in sorted(by_cid):
        ranks = sorted(by_cid[cid])
        findings.append(
            finding(
                "comm-leak",
                ranks[0],
                f"communicator {cid} (from split/dup) was never freed on "
                f"rank(s) {ranks} — call comm.free() when done",
            )
        )
    return findings
