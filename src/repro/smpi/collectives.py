"""Collective algorithms: result semantics and Hockney cost models.

Collectives are executed *natively* (all ranks rendezvous in a shared
context; the last arrival computes every rank's result) rather than being
decomposed into simulated point-to-point messages.  This keeps them
deterministic and fast while charging each rank the virtual time of the
standard algorithm:

========== =======================================================
barrier     dissemination, ``2·ceil(log2 p)·α``
bcast       binomial tree, ``ceil(log2 p)·(α + nβ)``
scatter     linear from root, ``Σ_i (α + n_i β)`` (root bottleneck)
gather      linear to root, same shape as scatter
allgather   ring, ``(p-1)·(α + n̄β)``
alltoall    pairwise, ``(p-1)·α + max(sent_r, recvd_r)·β`` per rank
reduce      binomial tree, ``ceil(log2 p)·(α + nβ + nγ)``
allreduce   butterfly, ``ceil(log2 p)·(α + nβ + nγ)``
scan/exscan binomial, ``ceil(log2 p)·(α + nβ)``
========== =======================================================

``γ`` is the per-byte reduction-combine cost (a fixed fraction of β).
Our collectives are *synchronizing*: every rank's completion is measured
from the last entry time.  Real MPI only guarantees this for barrier, but
the strengthening is standard in teaching simulators and only makes the
model conservative.

A deliberate teaching feature: if two ranks concurrently call *different*
collectives on the same communicator (a classic student bug), the context
detects the mismatch and raises instead of hanging.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import SMPIError, ValidationError
from repro.smpi.datatypes import Op, payload_nbytes

#: combine cost per byte, as a fraction of the network inverse bandwidth
REDUCE_GAMMA_FACTOR = 0.5


def copy_payload(obj: Any) -> Any:
    """Copy a payload so receivers never alias the sender's buffers.

    Ranks are threads in one address space; a real MPI would serialize,
    so sharing mutable objects across ranks would let buggy user code
    "work" here and break on a cluster.  numpy arrays use the cheap
    ``.copy()``; immutable scalars pass through; the rest is deep-copied.
    """
    if obj is None or isinstance(obj, (int, float, complex, str, bytes, bool, frozenset)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return copy.deepcopy(obj)


def log2ceil(p: int) -> int:
    """``ceil(log2(p))`` with ``log2ceil(1) == 0``."""
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    return int(math.ceil(math.log2(p))) if p > 1 else 0


@dataclass(frozen=True)
class NetParams:
    """Effective Hockney parameters for one collective invocation."""

    alpha: float
    beta: float

    @property
    def gamma(self) -> float:
        return self.beta * REDUCE_GAMMA_FACTOR


def _sizes(contribs: list[Any]) -> list[int]:
    return [payload_nbytes(c) for c in contribs]


# --- result semantics ------------------------------------------------------


def _result_barrier(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    return [None] * len(contribs)


def _result_bcast(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    return [copy_payload(contribs[root]) for _ in contribs]


def _result_scatter(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    p = len(contribs)
    seq = contribs[root]
    if seq is None or len(seq) != p:
        raise SMPIError(
            f"scatter root must supply a sequence of exactly {p} items, "
            f"got {None if seq is None else len(seq)}"
        )
    return [copy_payload(item) for item in seq]


def _result_gather(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    gathered = [copy_payload(c) for c in contribs]
    return [gathered if r == root else None for r in range(len(contribs))]


def _result_allgather(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    return [[copy_payload(c) for c in contribs] for _ in contribs]


def _result_alltoall(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    p = len(contribs)
    for r, c in enumerate(contribs):
        if c is None or len(c) != p:
            raise SMPIError(
                f"alltoall requires every rank to supply {p} items; "
                f"rank {r} supplied {None if c is None else len(c)}"
            )
    return [[copy_payload(contribs[i][j]) for i in range(p)] for j in range(p)]


def _result_reduce(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    total = op.reduce_sequence([copy_payload(c) for c in contribs])
    return [total if r == root else None for r in range(len(contribs))]


def _result_allreduce(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    total = op.reduce_sequence([copy_payload(c) for c in contribs])
    return [copy_payload(total) for _ in contribs]


def _result_reduce_scatter(
    contribs: list[Any], root: int, op: Optional[Op]
) -> list[Any]:
    p = len(contribs)
    for r, c in enumerate(contribs):
        if c is None or len(c) != p:
            raise SMPIError(
                f"reduce_scatter requires every rank to supply {p} items; "
                f"rank {r} supplied {None if c is None else len(c)}"
            )
    return [
        op.reduce_sequence([copy_payload(contribs[i][r]) for i in range(p)])
        for r in range(p)
    ]


def _result_scan(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    out: list[Any] = []
    acc = None
    for c in contribs:
        acc = copy_payload(c) if acc is None else op(acc, copy_payload(c))
        out.append(copy_payload(acc))
    return out


def _result_exscan(contribs: list[Any], root: int, op: Optional[Op]) -> list[Any]:
    out: list[Any] = [None]
    acc = copy_payload(contribs[0])
    for c in contribs[1:]:
        out.append(copy_payload(acc))
        acc = op(acc, copy_payload(c))
    return out


# --- cost models -----------------------------------------------------------


def _cost_barrier(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    return [2 * log2ceil(p) * net.alpha] * p


def _cost_bcast(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    n = payload_nbytes(contribs[root])
    return [log2ceil(p) * (net.alpha + n * net.beta)] * p


def _cost_scatter(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    pieces = contribs[root]
    total = sum((net.alpha + payload_nbytes(x) * net.beta) for i, x in enumerate(pieces) if i != root)
    return [total] * p


def _cost_gather(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    total = sum(
        (net.alpha + payload_nbytes(c) * net.beta)
        for r, c in enumerate(contribs)
        if r != root
    )
    return [total] * p


def _cost_allgather(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    if p == 1:
        return [0.0]
    avg = sum(_sizes(contribs)) / p
    return [(p - 1) * (net.alpha + avg * net.beta)] * p


def _cost_alltoall(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    if p == 1:
        return [0.0]
    sent = [sum(payload_nbytes(x) for j, x in enumerate(c) if j != r) for r, c in enumerate(contribs)]
    recvd = [
        sum(payload_nbytes(contribs[i][r]) for i in range(p) if i != r) for r in range(p)
    ]
    return [
        (p - 1) * net.alpha + max(sent[r], recvd[r]) * net.beta for r in range(p)
    ]


def _cost_reduce(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    n = max(_sizes(contribs)) if contribs else 0
    return [log2ceil(p) * (net.alpha + n * (net.beta + net.gamma))] * p


def _cost_allreduce(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    return _cost_reduce(net, contribs, root)


def _cost_scan(net: NetParams, contribs: list[Any], root: int) -> list[float]:
    p = len(contribs)
    n = max(_sizes(contribs)) if contribs else 0
    return [log2ceil(p) * (net.alpha + n * net.beta)] * p


@dataclass(frozen=True)
class CollectiveSpec:
    """Pairing of result semantics and cost model for one collective."""

    name: str
    primitive: str
    results: Callable[[list[Any], int, Optional[Op]], list[Any]]
    cost: Callable[[NetParams, list[Any], int], list[float]]
    needs_op: bool = False


KINDS: dict[str, CollectiveSpec] = {
    spec.name: spec
    for spec in (
        CollectiveSpec("barrier", "MPI_Barrier", _result_barrier, _cost_barrier),
        CollectiveSpec("bcast", "MPI_Bcast", _result_bcast, _cost_bcast),
        CollectiveSpec("scatter", "MPI_Scatter", _result_scatter, _cost_scatter),
        CollectiveSpec("gather", "MPI_Gather", _result_gather, _cost_gather),
        CollectiveSpec("allgather", "MPI_Allgather", _result_allgather, _cost_allgather),
        CollectiveSpec("alltoall", "MPI_Alltoall", _result_alltoall, _cost_alltoall),
        CollectiveSpec("reduce", "MPI_Reduce", _result_reduce, _cost_reduce, needs_op=True),
        CollectiveSpec(
            "allreduce", "MPI_Allreduce", _result_allreduce, _cost_allreduce, needs_op=True
        ),
        CollectiveSpec("scan", "MPI_Scan", _result_scan, _cost_scan, needs_op=True),
        CollectiveSpec("exscan", "MPI_Exscan", _result_exscan, _cost_scan, needs_op=True),
        CollectiveSpec(
            "reduce_scatter",
            "MPI_Reduce_scatter",
            _result_reduce_scatter,
            _cost_alltoall,
            needs_op=True,
        ),
    )
}


class CollectiveContext:
    """Rendezvous point for one collective call on one communicator.

    Ranks join in any order; the last one computes results and completion
    times for everyone.  Guarded by the world lock (not its own), so the
    world's deadlock detector sees ranks blocked here like any other
    blocked rank.
    """

    def __init__(self, kind: str, size: int, metrics=None):
        if kind not in KINDS:
            raise SMPIError(f"unknown collective kind {kind!r}")
        self.kind = kind
        self.size = size
        self.metrics = metrics  # optional repro.obs MetricsRegistry
        self.contribs: dict[int, Any] = {}
        self.entry_times: dict[int, float] = {}
        self.roots: dict[int, int] = {}
        self.done = False
        self.results: list[Any] = []
        self.completions: list[float] = []

    def join(
        self,
        rank: int,
        contribution: Any,
        entry_time: float,
        root: int,
        op: Optional[Op],
        net: NetParams,
    ) -> None:
        """Record one rank's entry; finalize if it is the last."""
        if self.done:
            raise SMPIError("collective context already completed")
        if rank in self.contribs:
            raise SMPIError(f"rank {rank} joined the same collective twice")
        self.contribs[rank] = contribution
        self.entry_times[rank] = entry_time
        self.roots[rank] = root
        if len(self.contribs) == self.size:
            self._finalize(op, net)

    def _finalize(self, op: Optional[Op], net: NetParams) -> None:
        roots = set(self.roots.values())
        if len(roots) != 1:
            raise SMPIError(
                f"{self.kind} called with mismatched roots across ranks: {sorted(roots)}"
            )
        root = roots.pop()
        spec = KINDS[self.kind]
        contribs = [self.contribs[r] for r in range(self.size)]
        self.results = spec.results(contribs, root, op)
        start = max(self.entry_times.values())
        costs = spec.cost(net, contribs, root)
        self.completions = [start + c for c in costs]
        self.done = True
        if self.metrics is not None:
            algo_time = self.metrics.histogram(
                "smpi.collective.time", algo=spec.primitive
            )
            sync_wait = self.metrics.histogram(
                "smpi.collective.sync_wait", algo=spec.primitive
            )
            for r in range(self.size):
                algo_time.observe(self.completions[r] - self.entry_times[r])
                sync_wait.observe(start - self.entry_times[r])


class CallTable:
    """Per-communicator sequence of rendezvous contexts.

    One table holds a communicator's collectives, another its shrink/agree
    calls (:mod:`repro.smpi.ft`).  The *i*-th call each rank makes joins
    context *i*, built by ``new_context(kind)``; a kind mismatch at the
    same index is the classic "ranks disagree on which call comes next"
    bug and raises a descriptive :class:`SMPIError`, headed by ``label``,
    instead of deadlocking.
    """

    def __init__(self, size: int, new_context: Callable[[str], Any], label: str):
        self.size = size
        self.new_context = new_context
        self.label = label
        self._contexts: dict[int, Any] = {}
        self._next_index: dict[int, int] = {}

    def context_for(self, rank: int, kind: str) -> tuple[int, Any]:
        """Get (creating if needed) the context for this rank's next call.

        Caller must hold the world lock.
        """
        index = self._next_index.get(rank, 0)
        self._next_index[rank] = index + 1
        ctx = self._contexts.get(index)
        if ctx is None:
            ctx = self.new_context(kind)
            self._contexts[index] = ctx
        elif ctx.kind != kind:
            raise SMPIError(
                f"{self.label} mismatch at call #{index}: rank {rank} called "
                f"{kind!r} but another rank called {ctx.kind!r}"
            )
        return index, ctx

    def maybe_release(self, index: int) -> None:
        """Drop a finished context once every rank has consumed it."""
        ctx = self._contexts.get(index)
        if ctx is None or not ctx.done:
            return
        if all(self._next_index.get(r, 0) > index for r in range(self.size)):
            del self._contexts[index]
