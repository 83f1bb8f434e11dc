"""Primitive-usage and time tracing.

The tracer serves two reproduction duties:

* **Table II verification** — every communicator call records the MPI
  primitive name it corresponds to, so the benchmark can check that each
  module implementation actually uses the primitives the paper's table
  says it needs (`MPI_Scatter` in Module 2, `MPI_Reduce` in Modules 2–4,
  ...).
* **Module 5's compute-vs-communication breakdown** — every event carries
  virtual start/end times classified as ``compute``, ``p2p`` or
  ``collective``, from which the k-means benchmark derives the fraction
  of time spent communicating as a function of ``k``.

It is also the substrate of :mod:`repro.obs`: events carry the
communicator id (``cid``), the peer (destination/source world rank for
point-to-point, the root's world rank for collectives) and a ``msg_id``
linking the two ends of each matched message, from which the Chrome-trace
exporter draws flow arrows and the wait-state/critical-path analyses
rebuild the dependency graph.

Tracing is on by default, so :meth:`Tracer.record` is on every message's
path.  It appends the event's nine fields to one flat list with a single
``list.extend`` (atomic under the GIL): no lock, no aggregation, and no
per-event object left for the garbage collector to scan — the argument
tuple is freed at once, and ints, floats and strs are not tracked.
Readers build the :class:`TraceEvent` tuples *on read*, once per event
and in record order: the unread tail moves from the flat list into the
built list, so each event is held only once.  :meth:`Tracer.summary`
folds the events (all, or one rank's) when asked, in record order, so
its float sums are those of an eager fold; every caller reads a
finished world once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import NamedTuple, Optional


class TraceEvent(NamedTuple):
    """One traced operation on one rank (virtual times in seconds).

    ``peer`` is the other side's *world* rank: the destination of a send,
    the source of a receive, or the root of a rooted collective.  ``cid``
    is the communicator id the operation ran on (``-1`` for compute
    phases).  ``msg_id`` ties the send-side and receive-side events of
    one point-to-point message together (``-1`` when not applicable).
    """

    rank: int
    category: str  # "compute" | "p2p" | "collective" | "fault"
    primitive: str  # e.g. "MPI_Send", "MPI_Allreduce", "compute", "fault_drop"
    nbytes: int
    t_start: float
    t_end: float
    peer: int = -1
    cid: int = -1
    msg_id: int = -1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


#: primitives that represent an outgoing message (the sending call itself)
SEND_PRIMITIVES = frozenset(
    {"MPI_Send", "MPI_Isend", "MPI_Ssend", "MPI_Bsend", "MPI_Sendrecv"}
)


@dataclass
class TraceSummary:
    """Aggregated view of a trace (optionally restricted to one rank)."""

    compute_time: float = 0.0
    p2p_time: float = 0.0
    collective_time: float = 0.0
    bytes_sent: int = 0
    messages_sent: int = 0
    primitive_counts: dict[str, int] = field(default_factory=dict)

    @property
    def comm_time(self) -> float:
        return self.p2p_time + self.collective_time

    @property
    def total_time(self) -> float:
        return self.compute_time + self.comm_time

    @property
    def comm_fraction(self) -> float:
        total = self.total_time
        return self.comm_time / total if total > 0 else 0.0

    def _add(self, event: TraceEvent) -> None:
        """Fold one event in.

        ``fault``-category events (injected by :mod:`repro.faults`)
        contribute to ``primitive_counts`` but to none of the time
        buckets — they mark an injection, they are not rank work.
        """
        if event.category == "compute":
            self.compute_time += event.duration
        elif event.category == "p2p":
            self.p2p_time += event.duration
        elif event.category == "collective":
            self.collective_time += event.duration
        if event.primitive in SEND_PRIMITIVES:
            self.bytes_sent += event.nbytes
            self.messages_sent += 1
        if event.category != "compute":
            self.primitive_counts[event.primitive] = (
                self.primitive_counts.get(event.primitive, 0) + 1
            )


#: fields per event in :attr:`Tracer._flat`
_FIELDS = len(TraceEvent._fields)
#: builds one event from a tuple of its fields, without a Python-level call
_event = partial(tuple.__new__, TraceEvent)


class Tracer:
    """Event recorder shared by all ranks of a world: ranks append
    lock-free, readers build the new tail under ``_tail_lock``."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: fields of the events no reader has built yet, ``_FIELDS`` per event
        self._flat: list = []
        #: the events built so far, in record order
        self._events: list[TraceEvent] = []
        self._tail_lock = threading.Lock()

    def record(self, rank: int, category: str, primitive: str, nbytes: int,
               t_start: float, t_end: float, peer: int = -1, cid: int = -1,
               msg_id: int = -1) -> None:
        if self.enabled:
            self._flat.extend(
                (rank, category, primitive, nbytes, t_start, t_end, peer, cid, msg_id))

    def _built(self) -> list[TraceEvent]:
        """Every event so far, after moving the unread tail into the
        built list (holding ``_tail_lock``).  A record racing this read
        lands after the ``n`` fields taken, so it waits for the next read."""
        flat = self._flat
        n = len(flat)
        if n:
            self._events.extend(map(_event, zip(*[islice(flat, n)] * _FIELDS)))
            del flat[:n]
        return self._events

    @property
    def events(self) -> list[TraceEvent]:
        with self._tail_lock:
            return self._built().copy()

    def __len__(self) -> int:
        with self._tail_lock:
            return len(self._events) + len(self._flat) // _FIELDS

    def clear(self) -> None:
        with self._tail_lock:
            self._flat.clear()
            self._events.clear()

    def primitives_used(self, rank: Optional[int] = None) -> set[str]:
        """Names of MPI primitives any (or one) rank invoked."""
        return set(self.summary(rank).primitive_counts)

    def summary(self, rank: Optional[int] = None) -> TraceSummary:
        """Aggregate times/volumes over all events (or one rank's),
        folded in record order when asked."""
        out = TraceSummary()
        for e in self.events if rank is None else self.events_for(rank):
            out._add(e)
        return out

    def events_for(self, rank: int) -> list[TraceEvent]:
        """One rank's events, in record order."""
        with self._tail_lock:
            return [e for e in self._built() if e.rank == rank]
