"""ULFM-style fault-tolerant rendezvous contexts (shrink / agree).

Ordinary collectives (:mod:`repro.smpi.collectives`) require *every*
member rank to enter before anyone leaves — which is exactly why they
cannot complete once a member has crashed.  The two survival operations
of the ULFM proposal, ``MPIX_Comm_shrink`` and ``MPIX_Comm_agree``,
instead rendezvous over the *surviving* members only: the completion
condition is re-evaluated every time the live set changes, so a rank
that dies mid-operation is simply dropped from the requirement.

An :class:`FtContext` is the meeting point for one such call.  Like a
:class:`~repro.smpi.collectives.CollectiveContext` it is guarded by the
world lock, ranks join in any order, and the first rank to observe the
completion condition finalizes results for everyone, and a
:class:`~repro.smpi.collectives.CallTable` sequences each communicator's
shrink/agree calls as another sequences its collectives.  Costs are charged
as ``O(log p)`` latency rounds over the survivor group, measured from
the last survivor's entry — both operations are agreement protocols at
heart, so a barrier-like cost model is the honest one.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.errors import SMPIError
from repro.smpi.collectives import log2ceil

#: latency rounds charged per operation (over the survivor group).
#: shrink = revoke propagation + agreement on the failed set + context
#: creation; agree = a reduce + a broadcast of the agreed flag.
SHRINK_ALPHA_ROUNDS = 3
AGREE_ALPHA_ROUNDS = 2


class FtContext:
    """Rendezvous point for one shrink/agree call on one communicator.

    ``group`` is the (old) communicator's world-rank tuple; contributions
    are keyed by *communicator* rank.  The context is ready as soon as
    every member that is still live has joined — crashed (or already
    exited) members are excused, and the readiness predicate is
    re-evaluated on every wake-up, so a member crashing mid-operation
    unblocks the rest instead of hanging them.
    """

    def __init__(self, kind: str, group: tuple[int, ...]):
        if kind not in ("shrink", "agree"):
            raise SMPIError(f"unknown fault-tolerant operation {kind!r}")
        self.kind = kind
        self.group = group
        self.contribs: dict[int, Any] = {}
        self.entry_times: dict[int, float] = {}
        self.done = False
        self.survivors: list[int] = []  # comm ranks, ascending
        self.new_cid: int = -1  # shrink only
        self.result: Optional[bool] = None  # agree only
        self.completion: float = 0.0

    def join(self, rank: int, contribution: Any, entry_time: float) -> None:
        """Record one rank's entry (caller holds the world lock)."""
        if self.done:
            raise SMPIError(
                f"fault-tolerant {self.kind} context already completed"
            )
        if rank in self.contribs:
            raise SMPIError(f"rank {rank} joined the same {self.kind} twice")
        self.contribs[rank] = contribution
        self.entry_times[rank] = entry_time

    def ready(self, live: Iterable[int]) -> bool:
        """True once every still-live member has joined.

        ``live`` is the world's live set; members outside it — crashed,
        or finished without calling — stop being waited on.
        """
        if not self.contribs:
            return False
        live_set = set(live)
        return all(
            rank in self.contribs
            for rank, world_rank in enumerate(self.group)
            if world_rank in live_set
        )

    def finalize(self, alpha: float, register_group) -> None:
        """Compute survivors, result and completion time.

        Caller holds the world lock and has checked :meth:`ready`.
        ``register_group`` allocates a cid for a world-rank group (the
        world's registry hook) — only called for ``shrink``.
        """
        self.survivors = sorted(self.contribs)
        start = max(self.entry_times[r] for r in self.survivors)
        s = len(self.survivors)
        if self.kind == "shrink":
            new_group = tuple(self.group[r] for r in self.survivors)
            self.new_cid = register_group(new_group)
            rounds = SHRINK_ALPHA_ROUNDS
        else:
            self.result = all(bool(self.contribs[r]) for r in self.survivors)
            rounds = AGREE_ALPHA_ROUNDS
        self.completion = start + rounds * log2ceil(max(s, 2)) * alpha
        self.done = True
