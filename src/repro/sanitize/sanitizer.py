"""The record-only hook object the smpi runtime calls into.

A :class:`Sanitizer` observes one world: every hook appends to a log and
never influences the run — with one deliberate exception.  While a
sanitizer is active, blocking **wildcard receives are held**: instead of
matching eagerly (whichever sender's envelope happened to be queued
first in *real* time), they park until the world stalls, and the
deadlock checker resolves them from the then-deterministic candidate
set (:meth:`repro.smpi.runtime.World._resolve_wildcard_holds_locked`).
``match_order`` picks which candidate wins — ``"first"`` (earliest
virtual send) on the primary run, ``"last"`` on the replay — so a
re-run perturbs exactly the schedule freedom MPI grants a wildcard
receive and nothing else.  If the two runs' results differ, the race is
real; if not, it is refuted.  Either way the answer is deterministic.

Install ambiently with :func:`capture` (intercepts worlds created deep
inside a runner, e.g. the pitfall demos call ``smpi.run`` themselves)
or explicitly via ``smpi.launch(..., sanitizer=...)``.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.errors import ValidationError
from repro.recovery.checkpoint import state_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.smpi.communicator import Comm
    from repro.smpi.message import Envelope, PostedRecv
    from repro.smpi.request import Request
    from repro.smpi.runtime import World

MATCH_ORDERS = ("first", "last")


@dataclass
class RequestRecord:
    """One nonblocking request's lifecycle, for leak/buffer tracking."""

    kind: str  # "isend" | "irecv"
    rank: int
    request: "Request"
    buf: Optional["np.ndarray"] = None
    digest_at_post: Optional[str] = None
    digest_at_done: Optional[str] = None
    completed: bool = False

    @property
    def buffer_mutated(self) -> bool:
        return (
            self.digest_at_done is not None
            and self.digest_at_done != self.digest_at_post
        )


@dataclass(frozen=True)
class CollectiveCall:
    """One rank's entry into one collective slot."""

    cid: int
    world_rank: int
    comm_rank: int
    index: int  # per-(cid, rank) call counter — the collective slot
    kind: str
    root: int
    count: Optional[int]  # len() of a list/tuple contribution, else None


@dataclass(frozen=True)
class WildcardMatch:
    """One stall-time resolution of a held wildcard receive."""

    rank: int  # receiving world rank
    cid: int
    source_spec: int  # ANY_SOURCE or the named world source
    tag_spec: int  # ANY_TAG or the named tag
    chosen_source: int
    chosen_send_time: float
    candidate_sources: tuple[int, ...]  # sorted; >1 distinct => racy

    @property
    def racy(self) -> bool:
        return len(self.candidate_sources) > 1


@dataclass(frozen=True)
class DeadlockSnapshot:
    """The blocked-rank picture the instant deadlock was declared."""

    blocked: dict[int, str]  # world rank -> blocking-call description
    live: frozenset[int]
    crashed: frozenset[int]


@dataclass
class CommRecord:
    """A communicator handle created by split/dup on one rank."""

    cid: int
    world_rank: int
    size: int
    freed: bool = False


class Sanitizer:
    """Passive observer of one simulated-MPI world (see module docs)."""

    def __init__(self, match_order: str = "first"):
        if match_order not in MATCH_ORDERS:
            raise ValidationError(
                f"match_order must be one of {MATCH_ORDERS}, got {match_order!r}"
            )
        self.match_order = match_order
        self.requests: list[RequestRecord] = []
        self._req_by_id: dict[int, RequestRecord] = {}
        self.collectives: list[CollectiveCall] = []
        self._coll_counts: dict[tuple[int, int], int] = {}
        self.matches: list[WildcardMatch] = []
        self.comms: dict[tuple[int, int], CommRecord] = {}
        self.deadlock: Optional[DeadlockSnapshot] = None
        self.world: Optional["World"] = None
        self.results: Optional[list[Any]] = None
        self.error: Optional[BaseException] = None
        self.finished = False

    # -- world lifecycle --------------------------------------------------

    def on_world_start(self, world: "World") -> None:
        self.world = world

    def on_world_finish(
        self, world: "World", results: list[Any], error: Optional[BaseException]
    ) -> None:
        self.world = world
        self.results = results
        self.error = error
        self.finished = True

    # -- nonblocking requests --------------------------------------------

    def on_request(
        self, req: "Request", *, rank: int, buf: Optional["np.ndarray"] = None
    ) -> None:
        rec = RequestRecord(
            kind=req.kind,
            rank=rank,
            request=req,
            buf=buf,
            digest_at_post=None if buf is None else state_digest(buf),
        )
        self._req_by_id[id(req)] = rec
        self.requests.append(rec)

    def on_request_done(self, req: "Request") -> None:
        rec = self._req_by_id.get(id(req))
        if rec is None or rec.completed:
            return
        rec.completed = True
        if rec.buf is not None:
            rec.digest_at_done = state_digest(rec.buf)

    # -- collectives ------------------------------------------------------

    def on_collective(
        self,
        cid: int,
        world_rank: int,
        comm_rank: int,
        kind: str,
        root: int,
        count: Optional[int],
    ) -> None:
        key = (cid, world_rank)
        index = self._coll_counts.get(key, 0)
        self._coll_counts[key] = index + 1
        self.collectives.append(
            CollectiveCall(cid, world_rank, comm_rank, index, kind, root, count)
        )

    # -- wildcard matching ------------------------------------------------

    def on_wildcard_match(
        self, pr: "PostedRecv", chosen: "Envelope", candidates: list["Envelope"]
    ) -> None:
        self.matches.append(
            WildcardMatch(
                rank=pr.dest,
                cid=pr.comm_cid,
                source_spec=pr.source,
                tag_spec=pr.tag,
                chosen_source=chosen.source,
                chosen_send_time=chosen.send_time,
                candidate_sources=tuple(sorted(e.source for e in candidates)),
            )
        )

    # -- communicator lifecycle ------------------------------------------

    def on_comm_created(self, comm: "Comm") -> None:
        self.comms[(comm.cid, comm.world_rank)] = CommRecord(
            cid=comm.cid, world_rank=comm.world_rank, size=comm.size
        )

    def on_comm_freed(self, comm: "Comm") -> None:
        rec = self.comms.get((comm.cid, comm.world_rank))
        if rec is not None:
            rec.freed = True

    # -- deadlock ---------------------------------------------------------

    def on_deadlock(
        self, blocked: dict[int, str], live: set[int], crashed: set[int]
    ) -> None:
        if self.deadlock is None:  # first declaration wins
            self.deadlock = DeadlockSnapshot(
                blocked=dict(blocked),
                live=frozenset(live),
                crashed=frozenset(crashed),
            )

    # -- outcome digest (the replay comparator) ---------------------------

    def outcome_digest(self) -> str:
        """Byte-identity digest of the run's observable outcome:
        per-rank results (dataclasses expanded field by field, so array
        payloads are hashed in full) plus the aborting error type."""
        err = type(self.error).__name__ if self.error is not None else ""
        return state_digest([_canonical(self.results), err])


def _canonical(obj: Any) -> Any:
    """Expand dataclasses into dicts so ``state_digest`` walks their
    fields (its fallback ``repr`` would elide large arrays)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    return obj


@contextmanager
def capture(san: Sanitizer) -> Iterator[Sanitizer]:
    """Install ``san`` as the ambient sanitizer for worlds this thread
    creates in this block (unless a ``sanitizer=`` argument overrides
    it)."""
    from repro.smpi import runtime as _runtime

    token = _runtime._active_sanitizer.set(san)
    try:
        yield san
    finally:
        _runtime._active_sanitizer.reset(token)
