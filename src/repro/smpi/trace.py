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

The global :meth:`Tracer.summary` is maintained *incrementally* at
record time — calls on a hot path (progress displays, adaptive
benchmarks) do not rescan the whole event list.  Per-rank summaries are
recomputed on demand from the event list.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional


@dataclass(frozen=True)
class TraceEvent:
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
        """Fold one event in (the incremental-maintenance hook).

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

    def copy(self) -> "TraceSummary":
        return replace(self, primitive_counts=dict(self.primitive_counts))


class Tracer:
    """Thread-safe event recorder shared by all ranks of a world."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._summary = TraceSummary()

    def record(
        self,
        rank: int,
        category: str,
        primitive: str,
        nbytes: int,
        t_start: float,
        t_end: float,
        peer: int = -1,
        cid: int = -1,
        msg_id: int = -1,
    ) -> None:
        if not self.enabled:
            return
        event = TraceEvent(
            rank, category, primitive, nbytes, t_start, t_end, peer, cid, msg_id
        )
        with self._lock:
            self._events.append(event)
            self._summary._add(event)

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._summary = TraceSummary()

    def primitives_used(self, rank: Optional[int] = None) -> set[str]:
        """Names of MPI primitives any (or one) rank invoked."""
        if rank is None:
            with self._lock:
                return {
                    p for p, n in self._summary.primitive_counts.items() if n > 0
                }
        return {
            e.primitive
            for e in self.events
            if e.category != "compute" and e.rank == rank
        }

    def summary(self, rank: Optional[int] = None) -> TraceSummary:
        """Aggregate times/volumes over all events (or one rank's).

        The whole-trace summary is O(1): it returns a copy of the
        aggregate maintained at :meth:`record` time.  Per-rank summaries
        walk the event list (the rarely-hot path).
        """
        if rank is None:
            with self._lock:
                return self._summary.copy()
        out = TraceSummary()
        for e in self.events:
            if e.rank != rank:
                continue
            out._add(e)
        return out

    def events_for(self, rank: int) -> Iterable[TraceEvent]:
        return (e for e in self.events if e.rank == rank)
