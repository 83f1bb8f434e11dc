"""Deterministic in-memory checkpoint store (the "checkpoint server").

Ranks snapshot versioned application state into a :class:`CheckpointStore`
owned by the recovery harness — memory that, like a real parallel file
system or burst buffer, *survives* the death of the rank that wrote it.
Checkpoints are keyed by **world rank** (stable across ``shrink``'s
renumbering), stamped with the writer's virtual clock, and digested with
blake2b over a canonical walk of the state, so two identical runs produce
byte-identical checkpoint lineages — the property the Module 8 recovery
drills verify.

Saving and restoring charge virtual time through the writer's roofline
model (state bytes streamed out and back in), so checkpoint frequency
shows up in the makespan exactly like a real checkpoint interval would —
that cost is what ``benchmarks/bench_recovery_overhead.py`` bounds.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from repro.errors import ValidationError
from repro.smpi.collectives import copy_payload
from repro.smpi.datatypes import payload_nbytes


def state_digest(state: Any) -> str:
    """blake2b digest of a canonical byte walk of ``state``.

    Deterministic across runs and processes for the types module
    workloads checkpoint (numbers, strings, bytes, numpy arrays, and
    dicts/lists/tuples thereof) — dict items are visited in sorted key
    order, and arrays contribute dtype and shape as well as raw bytes so
    a reshape cannot collide with its flat twin.
    """
    h = hashlib.blake2b(digest_size=16)
    _feed(h, state)
    return h.hexdigest()


def _feed(h: "hashlib._Hash", obj: Any) -> None:
    if obj is None or isinstance(obj, (bool, int, float, complex)):
        h.update(b"s")
        h.update(repr(obj).encode())
    elif isinstance(obj, str):
        h.update(b"u")
        h.update(obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"b")
        h.update(obj)
    elif isinstance(obj, np.ndarray):
        h.update(b"a")
        h.update(str(obj.dtype).encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"d")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"l" if isinstance(obj, list) else b"t")
        h.update(str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(b"r")
        h.update(repr(obj).encode())


@dataclass(frozen=True)
class Checkpoint:
    """One rank's snapshot at one epoch."""

    rank: int  #: world rank of the writer
    epoch: int
    vtime: float  #: writer's virtual clock when the save completed
    digest: str
    nbytes: int
    state: Any

    def line(self) -> str:
        """Canonical lineage line (no payload, stable formatting)."""
        return f"{self.rank}|{self.epoch}|{self.vtime:.12g}|{self.digest}"


class CheckpointStore:
    """Thread-safe epoch-versioned checkpoint memory shared by all ranks.

    One store serves one recovery run; it outlives individual rank
    crashes and communicator shrinks, which is what lets survivors adopt
    a dead rank's state.  All methods that touch a communicator charge
    the calling rank's virtual clock and record ``recovery`` trace
    events, so checkpoint traffic is visible in timelines and wait-state
    analysis.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_rank: dict[int, dict[int, Checkpoint]] = {}
        self.saves = 0
        self.restores = 0
        self.rollbacks = 0
        self.rollback_time = 0.0  #: virtual seconds of lost work rolled back

    # -- write -----------------------------------------------------------

    def save(self, comm: Any, epoch: int, state: Any) -> Checkpoint:
        """Snapshot ``state`` for the calling rank at ``epoch``.

        Charges the roofline cost of streaming the state bytes out (a
        memory-bound copy of ``2 * nbytes`` — read app memory, write
        checkpoint memory) and records a ``checkpoint_save`` event.
        """
        if epoch < 0:
            raise ValidationError(f"checkpoint epoch must be >= 0, got {epoch}")
        wr = comm.world_rank
        payload = copy_payload(state)
        nbytes = payload_nbytes(payload)
        digest = state_digest(payload)
        _, vtime = self._stream(comm, "checkpoint_save", nbytes)
        cp = Checkpoint(
            rank=wr, epoch=epoch, vtime=vtime, digest=digest,
            nbytes=nbytes, state=payload,
        )
        with self._lock:
            self._by_rank.setdefault(wr, {})[epoch] = cp
            self.saves += 1
        comm.world.metrics.counter("recovery.checkpoint_saves", rank=wr).inc()
        return cp

    # -- read ------------------------------------------------------------

    def load(self, comm: Any, epoch: int, rank: Optional[int] = None) -> Any:
        """Fetch checkpointed state (own by default, or a peer's by world
        rank) without rollback accounting — the orphan-adoption path.

        Charges the read-back cost and records a ``checkpoint_fetch``
        event.  Raises :class:`~repro.errors.ValidationError` when no
        such checkpoint exists.
        """
        owner = comm.world_rank if rank is None else rank
        cp = self._get(owner, epoch)
        self._stream(comm, "checkpoint_fetch", cp.nbytes, peer=owner)
        with self._lock:
            self.restores += 1
        return copy_payload(cp.state)

    def rollback(self, comm: Any, epoch: int) -> Any:
        """Restore the calling rank's own state from ``epoch``, counting
        the virtual time since that checkpoint as lost (rolled-back)
        work.  Records a ``checkpoint_restore`` event."""
        wr = comm.world_rank
        cp = self._get(wr, epoch)
        t0, _ = self._stream(comm, "checkpoint_restore", cp.nbytes)
        comm.world.metrics.counter("recovery.rollbacks", rank=wr).inc()
        with self._lock:
            self.restores += 1
            self.rollbacks += 1
            self.rollback_time += max(0.0, t0 - cp.vtime)
        return copy_payload(cp.state)

    @staticmethod
    def _stream(comm: Any, event: str, nbytes: int, peer: int = -1) -> tuple[float, float]:
        """Charge the calling rank the roofline cost of streaming
        ``nbytes`` of state (a memory-bound copy of ``2 * nbytes``) and
        record ``event`` over it; returns its start and end time."""
        wr = comm.world_rank
        world = comm.world
        t0 = comm.wtime()
        world.clocks[wr].advance(world.compute_model(wr).time(0.0, 2.0 * nbytes))
        t1 = comm.wtime()
        world.tracer.record(wr, "recovery", event, nbytes, t0, t1, peer=peer, cid=comm.cid)
        return t0, t1

    def _get(self, rank: int, epoch: int) -> Checkpoint:
        with self._lock:
            cp = self._by_rank.get(rank, {}).get(epoch)
        if cp is None:
            raise ValidationError(
                f"no checkpoint for world rank {rank} at epoch {epoch}"
            )
        return cp

    # -- introspection ---------------------------------------------------

    def ranks(self) -> list[int]:
        """World ranks that have saved at least one checkpoint."""
        with self._lock:
            return sorted(self._by_rank)

    def epochs(self, rank: int) -> list[int]:
        with self._lock:
            return sorted(self._by_rank.get(rank, {}))

    def latest_consistent_epoch(self, ranks: Iterable[int]) -> Optional[int]:
        """Largest epoch that *every* rank in ``ranks`` has checkpointed
        — the globally consistent recovery line — or ``None``."""
        rank_list = list(ranks)
        if not rank_list:
            return None
        with self._lock:
            sets = [set(self._by_rank.get(r, {})) for r in rank_list]
        common = set.intersection(*sets)
        return max(common) if common else None

    def lineage_digest(self) -> str:
        """blake2b digest of the whole store's lineage — every
        (rank, epoch, vtime, state-digest) line in sorted order.
        Identical runs produce identical lineage digests."""
        with self._lock:
            lines = sorted(
                cp.line()
                for by_epoch in self._by_rank.values()
                for cp in by_epoch.values()
            )
        h = hashlib.blake2b(digest_size=16)
        for line in lines:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()
