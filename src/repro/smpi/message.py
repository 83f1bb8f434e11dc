"""Message envelopes and per-rank matching queues.

The matching model is the standard two-queue MPI design:

* every rank has an **unexpected-message queue** holding envelopes that
  arrived before a matching receive was posted, and
* a **posted-receive queue** holding receives waiting for a message.

An arriving send first consults the posted queue; a new receive first
consults the unexpected queue.  Both respect MPI's non-overtaking rule:
messages from the same source with matching tags are received in the
order they were sent.

Both queues are *indexed* by the exact match key ``(comm_cid, source,
tag)``:

* unexpected envelopes live in per-key FIFO deques (the O(1) fast path
  for exact-source receives and probes) **and** in one arrival-order
  dict keyed by message id (``Envelope.seq``, unique per world) shared
  by all keys, which wildcard scans, probes and the sanitizer's hold
  resolver walk to preserve exact arrival-order semantics.  A dict keeps
  insertion order, so consuming an envelope is one O(1) ``del``.
* posted receives are split into per-key deques (exact receives) and a
  post-order wildcard side-list (``ANY_SOURCE``/``ANY_TAG``, which is
  also where sanitizer-``hold`` receives always land).  An arriving
  envelope probes one deque head plus the — normally empty — wildcard
  list, and ``PostedRecv.seq`` (post order) breaks ties between the two
  halves so matching order is identical to the historical single-list
  scan.

All queue state is guarded by the world lock (see
:mod:`repro.smpi.runtime`), so methods here assume the caller holds it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.smpi.datatypes import ANY_SOURCE, ANY_TAG


@dataclass(slots=True)
class Envelope:
    """One in-flight message (world-rank addressing).

    ``send_time`` is the sender's virtual clock at the send call;
    ``arrival_time`` is when the payload is fully available at the
    receiver (eager protocol) or ``None`` until the rendezvous handshake
    completes.  ``completion_time`` is filled at match time for
    rendezvous sends so the blocked sender knows when to resume.  ``seq``
    is the message id, drawn from the world's ``next_seq``.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    send_time: float
    net_time: float
    rendezvous: bool = False
    arrival_time: Optional[float] = None
    completion_time: Optional[float] = None
    comm_cid: int = 0
    seq: int = field(kw_only=True)

    def matches(self, source: int, tag: int, comm_cid: int) -> bool:
        """Does this envelope satisfy a receive for ``(source, tag)``?"""
        if comm_cid != self.comm_cid:
            return False
        if source != ANY_SOURCE and source != self.source:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True


@dataclass(slots=True)
class PostedRecv:
    """A posted (possibly non-blocking) receive awaiting a match.

    ``seq`` comes from the world's ``next_seq``; it orders one rank's
    posts (the exact-vs-wildcard tie-break in :class:`MatchingQueues`).
    """

    dest: int
    source: int
    tag: int
    comm_cid: int
    post_time: float
    envelope: Optional[Envelope] = None
    #: a *held* receive never matches eagerly in :meth:`match_arriving`;
    #: the deadlock checker resolves it at a global stall, where queue
    #: contents are deterministic (the sanitizer's race-replay substrate).
    hold: bool = False
    seq: int = field(kw_only=True)

    @property
    def matched(self) -> bool:
        return self.envelope is not None

    @property
    def wildcard(self) -> bool:
        return self.source == ANY_SOURCE or self.tag == ANY_TAG

    def accepts(self, env: Envelope) -> bool:
        return env.matches(self.source, self.tag, self.comm_cid) and env.dest == self.dest


class MatchingQueues:
    """The unexpected-message and posted-receive queues of one rank."""

    def __init__(self, rank: int):
        self.rank = rank
        # unexpected side: per-(cid, source, tag) FIFO deques plus one
        # arrival-order dict keyed by message id.
        self._unexpected_by_key: dict[tuple[int, int, int], deque[Envelope]] = {}
        self._arrivals: dict[int, Envelope] = {}
        # posted side: per-key deques for exact receives, post-order
        # side-list for wildcard (ANY_SOURCE/ANY_TAG, incl. held) ones.
        self._posted_by_key: dict[tuple[int, int, int], deque[PostedRecv]] = {}
        self._posted_wild: list[PostedRecv] = []
        #: fast-path instrumentation, published as ``smpi.match.*``
        #: counters at the end of :func:`repro.smpi.runtime.launch`.
        self.stats = {
            "indexed_hits": 0,     # exact-key deque satisfied the lookup
            "wildcard_scans": 0,   # arrival-order dict had to be walked
            "unexpected_enqueued": 0,
        }

    # -- read-only views (tests, sanitizer introspection) -----------------

    @property
    def unexpected(self) -> list[Envelope]:
        """Unexpected envelopes in arrival order (a fresh list)."""
        return list(self._arrivals.values())

    @property
    def posted(self) -> list[PostedRecv]:
        """All posted receives in post order (a fresh list)."""
        merged = list(self._posted_wild)
        for dq in self._posted_by_key.values():
            merged.extend(dq)
        merged.sort(key=lambda pr: pr.seq)
        return merged

    # -- arriving messages -------------------------------------------------

    def match_arriving(self, env: Envelope) -> Optional[PostedRecv]:
        """Try to pair an arriving envelope with a posted receive.

        Returns the matched posted receive (removed from the queue), or
        ``None`` after appending the envelope to the unexpected queue.
        The earliest-*posted* accepting receive wins, exactly as in the
        historical single-list scan: the exact-key deque head competes
        with the first accepting wildcard receive on ``seq`` (post
        order).  Held receives never match eagerly.
        """
        key = (env.comm_cid, env.source, env.tag)
        dq = self._posted_by_key.get(key)
        wild = None
        if self._posted_wild:
            for pr in self._posted_wild:
                if not pr.hold and pr.accepts(env):
                    wild = pr
                    break
        if dq and (wild is None or dq[0].seq < wild.seq):
            chosen = dq.popleft()
            if not dq:
                del self._posted_by_key[key]
        elif wild is not None:
            chosen = wild
            self._posted_wild.remove(wild)
        else:
            self.stats["unexpected_enqueued"] += 1
            self._unexpected_by_key.setdefault(key, deque()).append(env)
            self._arrivals[env.seq] = env
            return None
        chosen.envelope = env
        return chosen

    # -- posted receives ---------------------------------------------------

    def post(self, pr: PostedRecv) -> None:
        if pr.wildcard:
            self._posted_wild.append(pr)
        else:
            self._posted_by_key.setdefault(
                (pr.comm_cid, pr.source, pr.tag), deque()
            ).append(pr)

    def cancel(self, pr: PostedRecv) -> bool:
        """Remove an unmatched posted receive; True if it was removed."""
        if pr.wildcard:
            try:
                self._posted_wild.remove(pr)
                return True
            except ValueError:
                return False
        key = (pr.comm_cid, pr.source, pr.tag)
        dq = self._posted_by_key.get(key)
        if dq is None:
            return False
        try:
            dq.remove(pr)
        except ValueError:
            return False
        if not dq:
            del self._posted_by_key[key]
        return True

    # -- consuming unexpected messages ------------------------------------

    def take_unexpected(self, source: int, tag: int, comm_cid: int) -> Optional[Envelope]:
        """Remove and return the first matching unexpected envelope, the
        one :meth:`peek_unexpected` finds.  An exact key pops its deque
        head here; a wildcard goes through the peek's arrival-order scan."""
        if source == ANY_SOURCE or tag == ANY_TAG:
            env = self.peek_unexpected(source, tag, comm_cid)
            if env is not None:
                self.remove_unexpected(env)
            return env
        key = (comm_cid, source, tag)
        dq = self._unexpected_by_key.get(key)
        if not dq:
            return None
        self.stats["indexed_hits"] += 1
        env = dq.popleft()
        if not dq:
            del self._unexpected_by_key[key]
        del self._arrivals[env.seq]
        return env

    def remove_unexpected(self, env: Envelope) -> None:
        """Remove one specific live envelope: a wildcard take, or the
        wildcard-hold resolver's pick among
        :meth:`first_matching_per_source` candidates.  Either is the head
        of its key deque, so the removal is an O(1) pop; an exact take
        pops its head inline in :meth:`take_unexpected`."""
        key = (env.comm_cid, env.source, env.tag)
        dq = self._unexpected_by_key[key]
        if dq[0] is env:
            dq.popleft()
        else:
            dq.remove(env)
        if not dq:
            del self._unexpected_by_key[key]
        del self._arrivals[env.seq]

    def first_matching_per_source(
        self, source: int, tag: int, comm_cid: int
    ) -> list[Envelope]:
        """The head-of-line matchable envelope of each source.

        Scans the unexpected queue in arrival order and keeps only the
        *first* matching envelope per source — the only one a receive may
        legally take under non-overtaking.  The sanitizer's wildcard-hold
        resolver chooses among exactly this candidate set.
        """
        firsts: dict[int, Envelope] = {}
        for env in self._arrivals.values():
            if env.matches(source, tag, comm_cid) and env.source not in firsts:
                firsts[env.source] = env
        return list(firsts.values())

    def peek_unexpected(self, source: int, tag: int, comm_cid: int) -> Optional[Envelope]:
        """Return (without removing) the first matching unexpected envelope.

        "First" is in arrival order, which preserves non-overtaking for
        any fixed source; under ``ANY_SOURCE`` arrival order is the tie
        breaker, as in a real MPI.  The exact-key case reads a deque head
        in O(1); only wildcard receives walk the arrival-order dict.
        """
        if source != ANY_SOURCE and tag != ANY_TAG:
            dq = self._unexpected_by_key.get((comm_cid, source, tag))
            if dq:
                self.stats["indexed_hits"] += 1
                return dq[0]
            return None
        self.stats["wildcard_scans"] += 1
        for env in self._arrivals.values():
            if env.matches(source, tag, comm_cid):
                return env
        return None

    def requeue(self, env: Envelope) -> None:
        """Return a matched-but-abandoned envelope to the *front* of the
        unexpected queue.

        Used when a ``timeout=`` receive matched a message whose payload
        only lands after the deadline: the receive gives up, but the
        message is still in transit and a retry may take it — front
        insertion keeps non-overtaking intact for its source (it was the
        head of its key when taken, so no same-key envelope overtakes).
        """
        # Rare path: rebuild the arrival-order dict with ``env`` first.
        self._arrivals = {env.seq: env, **self._arrivals}
        key = (env.comm_cid, env.source, env.tag)
        self._unexpected_by_key.setdefault(key, deque()).appendleft(env)

    def purge_cid(self, cid: int) -> None:
        """Drop every unexpected envelope of a revoked communicator."""
        self._arrivals = {
            seq: env for seq, env in self._arrivals.items() if env.comm_cid != cid
        }
        self._unexpected_by_key = {}
        for env in self._arrivals.values():
            key = (env.comm_cid, env.source, env.tag)
            self._unexpected_by_key.setdefault(key, deque()).append(env)
