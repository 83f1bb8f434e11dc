"""Automated bottleneck attribution over a finished trace.

Three analysis passes, each returning structured dataclasses:

* :func:`analyze_wait_states` — Scalasca-style wait-state attribution.
  Every second a rank spends blocked is charged to a *pattern*:
  ``late_sender`` (a receive posted before the matching send started),
  ``late_receiver`` (a rendezvous send stalled on a late receive post)
  or ``collective_sync`` (waiting for the last rank to enter a
  collective).  Under fault injection (:mod:`repro.faults`) two more
  patterns appear so lost time is charged to the *fault*, not to an
  innocent peer: ``fault_delay`` (the wait on a message a
  delay/straggler-link fault slowed down — identified by the fault
  trace event sharing the message's ``msg_id``) and ``fault_timeout``
  (a ``timeout=`` receive that expired).  Recovery drills
  (:mod:`repro.recovery`) add ``recovery_sync``: time spent inside a
  ``shrink``/``agree`` rendezvous waiting for the other survivors, so
  the price of recovering is attributed separately from ordinary
  collective synchronization.
* :func:`critical_path` — the chain of events that determines the
  virtual makespan, extracted by walking the send/recv/collective
  dependency graph backwards from the last event.  By construction its
  segment contributions telescope to the makespan, which the unit tests
  assert on known workloads.
* :func:`load_imbalance` — per-rank busy/compute time and the classic
  percent-imbalance statistic ``max/mean - 1``.

The passes need only a :class:`~repro.smpi.trace.Tracer` (or the raw
event list): matched message ends share a ``msg_id`` and collective
events carry their communicator id, so the dependency graph rebuilds
without access to the live world.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from repro.errors import ValidationError
from repro.smpi.trace import SEND_PRIMITIVES, TraceEvent, Tracer

_EPS = 1e-12

#: primitives that can close a message on the receiving rank
_RECV_PRIMITIVES = frozenset({"MPI_Recv", "MPI_Wait"})


def _event_list(trace: Union[Tracer, Iterable[TraceEvent]]) -> list[TraceEvent]:
    """The events to analyse; a list is read as is (no pass mutates it)."""
    if isinstance(trace, Tracer):
        events = trace.events
    elif isinstance(trace, list):
        events = trace
    else:
        events = list(trace)
    if not events:
        raise ValidationError("trace is empty — was tracing enabled?")
    return events


@dataclass(frozen=True)
class MessageMatch:
    """The two ends of one point-to-point message, paired by ``msg_id``."""

    msg_id: int
    send: TraceEvent  # the sending call (MPI_Send/Isend/... on the source)
    recv: TraceEvent  # the completing call (MPI_Recv/MPI_Wait on the dest)
    send_block: TraceEvent  # sender-side event that blocked longest (>= send)

    @property
    def rendezvous_blocked(self) -> bool:
        """True when the sender genuinely stalled in the rendezvous:
        a blocked sender resumes at the instant the receive completes,
        while an eager send pays only injection overhead."""
        blk = self.send_block
        # Both ends of a rendezvous resume from the *same* completion_time
        # float, so the match is (near-)exact; an eager send ends alpha vs
        # alpha+n*beta apart from the receive, far outside this tolerance.
        tol = 1e-12 * max(1.0, abs(self.recv.t_end))
        return blk.duration > _EPS and abs(blk.t_end - self.recv.t_end) <= tol


def match_messages(trace: Union[Tracer, Iterable[TraceEvent]]) -> list[MessageMatch]:
    """Pair send-side and receive-side events of every completed message."""
    by_msg: dict[int, list[TraceEvent]] = defaultdict(list)
    for e in _event_list(trace):
        # Fault markers share the affected message's msg_id but are not
        # an end of the message; they are matched separately by the
        # wait-state analysis.
        if e.msg_id >= 0 and e.category != "fault":
            by_msg[e.msg_id].append(e)
    out = []
    for msg_id, events in sorted(by_msg.items()):
        sends = [e for e in events if e.primitive in SEND_PRIMITIVES]
        if not sends:
            continue
        send = min(sends, key=lambda e: e.t_start)
        sender_side = [e for e in events if e.rank == send.rank]
        recvs = [
            e
            for e in events
            if e.rank != send.rank and e.primitive in _RECV_PRIMITIVES
        ]
        if not recvs:
            continue  # in-flight at trace end (or receiver untraced)
        recv = max(recvs, key=lambda e: e.t_end)
        send_block = max(sender_side, key=lambda e: e.duration)
        out.append(MessageMatch(msg_id, send, recv, send_block))
    return out


# -- wait-state attribution -------------------------------------------------


@dataclass(frozen=True)
class WaitInterval:
    """One attributed span of blocked time on one rank."""

    rank: int
    # "late_sender" | "late_receiver" | "collective_sync"
    #  | "fault_delay" | "fault_timeout" | "recovery_sync"
    kind: str
    primitive: str
    peer: int  # causing rank (world rank), or -1 for collectives
    t_start: float
    t_end: float
    cid: int = -1

    @property
    def time(self) -> float:
        return self.t_end - self.t_start


@dataclass
class WaitStateReport:
    """All attributed wait intervals of one run."""

    intervals: list[WaitInterval] = field(default_factory=list)

    @property
    def total_wait(self) -> float:
        return sum(w.time for w in self.intervals)

    def rank_total(self, rank: int, kind: Optional[str] = None) -> float:
        return sum(
            w.time
            for w in self.intervals
            if w.rank == rank and (kind is None or w.kind == kind)
        )

    def by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for w in self.intervals:
            out[w.kind] = out.get(w.kind, 0.0) + w.time
        return out

    def by_rank(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for w in self.intervals:
            out[w.rank] = out.get(w.rank, 0.0) + w.time
        return out


def _rendezvous_calls(
    events: list[TraceEvent], joins: Callable[[TraceEvent], bool]
) -> list[list[TraceEvent]]:
    """Group the rendezvous events that ``joins`` selects into per-call
    groups.

    Rendezvous calls on one communicator are totally ordered per rank,
    so the *k*-th such event a rank records on communicator ``cid``
    belongs to the communicator's *k*-th call.  Grouping by ``(cid, k)``
    therefore distinguishes overlapping calls on different communicators
    — the reason collective and shrink/agree events record their
    ``cid``.
    """
    per_rank: dict[tuple[int, int], list[TraceEvent]] = defaultdict(list)
    for e in events:
        if joins(e):
            per_rank[(e.cid, e.rank)].append(e)
    calls: dict[tuple[int, int], list[TraceEvent]] = defaultdict(list)
    for (cid, _rank), seq in per_rank.items():
        seq.sort(key=lambda e: (e.t_start, e.t_end))
        for k, e in enumerate(seq):
            calls[(cid, k)].append(e)
    return [group for _key, group in sorted(calls.items())]


def _is_collective(e: TraceEvent) -> bool:
    return e.category == "collective"


#: recovery primitives that rendezvous like collectives (over survivors)
_RECOVERY_SYNC_PRIMITIVES = frozenset({"MPIX_Comm_shrink", "MPIX_Comm_agree"})


def _is_recovery_sync(e: TraceEvent) -> bool:
    return e.category == "recovery" and e.primitive in _RECOVERY_SYNC_PRIMITIVES


def analyze_wait_states(
    trace: Union[Tracer, Iterable[TraceEvent]]
) -> WaitStateReport:
    """Attribute every blocked span to a late peer (Scalasca patterns)."""
    events = _event_list(trace)
    report = WaitStateReport()
    # Faulted messages: a fault_delay/fault_slowdown trace event shares
    # the slowed message's msg_id, re-attributing its waits to the fault.
    slowed_msgs: set[int] = set()
    for e in events:
        if e.category != "fault":
            continue
        if e.primitive in ("fault_delay", "fault_slowdown") and e.msg_id >= 0:
            slowed_msgs.add(e.msg_id)
        elif e.primitive == "fault_timeout" and e.duration > _EPS:
            # The whole abandoned wait is the fault's; there is no peer
            # to blame — the message never came.
            report.intervals.append(
                WaitInterval(
                    rank=e.rank, kind="fault_timeout",
                    primitive=e.primitive, peer=-1,
                    t_start=e.t_start, t_end=e.t_end, cid=e.cid,
                )
            )
    # Point-to-point patterns, from matched message pairs.
    for m in match_messages(events):
        if m.msg_id in slowed_msgs:
            # The receiver's whole blocked span is charged to the fault:
            # without the injected delay/slowdown the sender was on time.
            if m.recv.t_end > m.recv.t_start + _EPS:
                report.intervals.append(
                    WaitInterval(
                        rank=m.recv.rank, kind="fault_delay",
                        primitive=m.recv.primitive, peer=m.send.rank,
                        t_start=m.recv.t_start, t_end=m.recv.t_end,
                        cid=m.recv.cid,
                    )
                )
            continue
        # Late sender: the receiver sat in its receive before the send
        # call even started; that head span is the sender's fault.
        wait_end = min(m.recv.t_end, m.send.t_start)
        if wait_end > m.recv.t_start + _EPS:
            report.intervals.append(
                WaitInterval(
                    rank=m.recv.rank, kind="late_sender",
                    primitive=m.recv.primitive, peer=m.send.rank,
                    t_start=m.recv.t_start, t_end=wait_end, cid=m.recv.cid,
                )
            )
        # Late receiver: a rendezvous send (or its wait) stalled until the
        # receive was posted; the head span up to the post is the
        # receiver's fault.  Only a rendezvous-blocked sender finishes at
        # the same instant the receive completes — eager sends pay only
        # injection overhead and are never the receiver's fault.
        blk = m.send_block
        wait_end = min(blk.t_end, m.recv.t_start)
        if m.rendezvous_blocked and wait_end > blk.t_start + _EPS:
            report.intervals.append(
                WaitInterval(
                    rank=blk.rank, kind="late_receiver",
                    primitive=blk.primitive, peer=m.recv.rank,
                    t_start=blk.t_start, t_end=wait_end, cid=blk.cid,
                )
            )
    # Rendezvous synchronization: time from a rank's entry to the last
    # rank's entry is pure waiting.  Shrink/agree rendezvous over the
    # survivors are the waiting cost of recovering, so they get their
    # own pattern.
    for kind, joins in (("collective_sync", _is_collective),
                        ("recovery_sync", _is_recovery_sync)):
        for group in _rendezvous_calls(events, joins):
            start = max(e.t_start for e in group)
            for e in group:
                if start > e.t_start + _EPS:
                    report.intervals.append(
                        WaitInterval(
                            rank=e.rank, kind=kind,
                            primitive=e.primitive, peer=-1,
                            t_start=e.t_start, t_end=min(start, e.t_end),
                            cid=e.cid,
                        )
                    )
    report.intervals.sort(key=lambda w: (w.t_start, w.rank))
    return report


# -- critical path ----------------------------------------------------------


@dataclass(frozen=True)
class PathSegment:
    """One event on the critical path and its contribution to the makespan."""

    rank: int
    category: str
    primitive: str
    t_start: float
    t_end: float
    contribution: float


@dataclass
class CriticalPath:
    """The dependency chain that sets the virtual makespan."""

    segments: list[PathSegment]  # in time order
    makespan: float

    @property
    def length(self) -> float:
        """Sum of segment contributions; equals the makespan by construction."""
        return sum(s.contribution for s in self.segments)

    def time_by_category(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.segments:
            out[s.category] = out.get(s.category, 0.0) + s.contribution
        return out

    def time_by_rank(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for s in self.segments:
            out[s.rank] = out.get(s.rank, 0.0) + s.contribution
        return out


def critical_path(trace: Union[Tracer, Iterable[TraceEvent]]) -> CriticalPath:
    """Extract the critical path through the send/recv dependency graph.

    The walk starts at the event with the largest end time and repeatedly
    follows the *binding* predecessor — the dependency whose completion
    determined the current event's completion: the previous event on the
    same rank, the matching send call of a receive, the receiver's
    progress for a stalled rendezvous send, or (for collectives) the
    last-entering member's preceding work.  Segment contributions are
    ``t_end(e) - t_end(binding(e))``, which telescope to the makespan.
    """
    events = _event_list(trace)
    order: dict[int, list[TraceEvent]] = defaultdict(list)
    for e in events:
        order[e.rank].append(e)
    rank_prev: dict[int, Optional[TraceEvent]] = {}
    for seq in order.values():
        seq.sort(key=lambda e: (e.t_start, e.t_end))
        prev = None
        for e in seq:
            rank_prev[id(e)] = prev
            prev = e
    matches = match_messages(events)
    recv_dep: dict[int, list[TraceEvent]] = defaultdict(list)
    for m in matches:
        # A receive depends on the send call; a stalled send depends on
        # whatever the receiver was doing before it posted the receive.
        recv_dep[id(m.recv)].append(m.send)
        if m.rendezvous_blocked:
            prior = rank_prev.get(id(m.recv))
            if prior is not None:
                recv_dep[id(m.send_block)].append(prior)
    coll_dep: dict[int, list[TraceEvent]] = {}
    for group in _rendezvous_calls(events, _is_collective):
        deps = [p for e in group if (p := rank_prev.get(id(e))) is not None]
        for e in group:
            coll_dep[id(e)] = deps
    end_event = max(events, key=lambda e: e.t_end)
    segments: list[PathSegment] = []
    cur = end_event
    seen: set[int] = set()
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        candidates: list[TraceEvent] = []
        p = rank_prev.get(id(cur))
        if p is not None:
            candidates.append(p)
        candidates.extend(recv_dep.get(id(cur), ()))
        candidates.extend(coll_dep.get(id(cur), ()))
        candidates = [
            c for c in candidates
            if id(c) not in seen and c.t_end <= cur.t_end + _EPS
        ]
        pred = max(candidates, key=lambda e: e.t_end, default=None)
        contribution = cur.t_end - (pred.t_end if pred is not None else 0.0)
        segments.append(
            PathSegment(
                rank=cur.rank, category=cur.category, primitive=cur.primitive,
                t_start=cur.t_start, t_end=cur.t_end,
                contribution=max(0.0, contribution),
            )
        )
        cur = pred
    segments.reverse()
    return CriticalPath(segments=segments, makespan=end_event.t_end)


# -- load imbalance ---------------------------------------------------------


@dataclass(frozen=True)
class LoadImbalance:
    """Per-rank work distribution and the percent-imbalance statistic."""

    compute_by_rank: dict[int, float]
    busy_by_rank: dict[int, float]
    mean_compute: float
    max_compute: float
    most_loaded_rank: int

    @property
    def imbalance(self) -> float:
        """``max/mean - 1``: 0 for perfect balance, 1 when the busiest
        rank does twice the average work."""
        if self.mean_compute <= 0:
            return 0.0
        return self.max_compute / self.mean_compute - 1.0


def load_imbalance(trace: Union[Tracer, Iterable[TraceEvent]]) -> LoadImbalance:
    """Score compute-load imbalance across ranks."""
    events = _event_list(trace)
    compute: dict[int, float] = defaultdict(float)
    busy: dict[int, float] = defaultdict(float)
    for e in events:
        busy[e.rank] += e.duration
        if e.category == "compute":
            compute[e.rank] += e.duration
        else:
            compute.setdefault(e.rank, 0.0)
    mean = sum(compute.values()) / len(compute)
    most_loaded = max(compute, key=lambda r: compute[r])
    return LoadImbalance(
        compute_by_rank=dict(sorted(compute.items())),
        busy_by_rank=dict(sorted(busy.items())),
        mean_compute=mean,
        max_compute=compute[most_loaded],
        most_loaded_rank=most_loaded,
    )
