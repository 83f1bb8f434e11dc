"""The fault injector: turns a :class:`~repro.faults.plan.FaultPlan`
into per-message decisions inside the smpi runtime.

Determinism is the whole point.  Probabilistic faults do **not** draw
from a shared RNG: ranks run one at a time, so its draws would not race,
but which message got which draw would then depend on how every rank's
sends interleave.  Instead each decision is an independent hash of
``(seed, fault key, src, dst, match ordinal)``, and match ordinals are
counted per sending rank — every rank's decisions follow its own
program order, so a rank's faults do not move when another rank's code
changes.  The hash is a stable blake2b, not Python's randomized
``hash()``, so runs agree *across* processes too.

Injected faults are visible in the trace: every decision records a
zero-duration ``fault``-category event (``fault_drop``,
``fault_duplicate``, ``fault_delay``, ``fault_slowdown``,
``fault_crash``) carrying the affected message's ``msg_id``, which is
how :func:`repro.obs.analysis.analyze_wait_states` re-attributes the
resulting wait time to the fault rather than to a "late sender".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ValidationError, _RankSelfCrash
from repro.faults.plan import ANY, CrashFault, FaultPlan
from repro.smpi.collectives import copy_payload
from repro.smpi.message import Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.smpi.runtime import World
    from repro.smpi.trace import Tracer


def _uniform(*parts: object) -> float:
    """Deterministic uniform draw in [0, 1) from a stable hash of parts."""
    h = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") / 2.0**64


@dataclass
class SendDecision:
    """What the injector decided about one outgoing message."""

    drop: bool = False
    copies: int = 0
    net_factor: float = 1.0
    extra_delay: float = 0.0
    delayed: bool = False
    slowed: bool = False

    @property
    def any(self) -> bool:
        return self.drop or self.copies > 0 or self.delayed or self.slowed


class FaultInjector:
    """Live fault state for one :class:`~repro.smpi.runtime.World`.

    Constructed by the world only when the plan is non-empty, so the
    no-faults fast path stays a single ``is None`` check per call.  A
    plan naming a rank outside the world is a
    :class:`~repro.errors.ValidationError` here: its fault could never
    fire.

    Thread-safety: all counters are keyed by the *sending* rank and each
    rank runs on one thread, so every key is touched by exactly one
    thread.
    """

    def __init__(
        self,
        plan: FaultPlan,
        nprocs: int,
        tracer: "Tracer",
        metrics: "MetricsRegistry",
        next_seq: Callable[[], int],
    ):
        for f in plan.all_faults:
            crash = isinstance(f, CrashFault)
            ranks = {"rank": f.rank} if crash else {"src": f.selector.src, "dst": f.selector.dst}
            for name, rank in ranks.items():
                if not (0 <= rank < nprocs or (rank == ANY and not crash)):
                    raise ValidationError(
                        f"fault {f.key!r}: {name} {rank} is not a rank of this world "
                        f"(nprocs={nprocs})"
                    )
        self.plan = plan
        self.nprocs = nprocs
        self.tracer = tracer
        self.metrics = metrics
        # the world's message-id source, for duplicate envelopes
        self.next_seq = next_seq
        # (fault key, src) -> how many messages matched the selector so far
        self._matched: dict[tuple[str, int], int] = {}
        # (fault key, src) -> how many times the fault actually fired
        self._fired: dict[tuple[str, int], int] = {}
        # src -> total send attempts (for on_nth_send crash triggers)
        self._sends: dict[int, int] = {}
        self._crash_for: dict[int, CrashFault] = {
            c.rank: c for c in plan.crashes
        }

    # -- crashes -----------------------------------------------------------

    def maybe_crash(self, world: "World", rank: int, now: float) -> None:
        """Called at the top of every MPI call on ``rank``.

        Crashes the rank if its scheduled virtual time has arrived, and
        keeps an already-crashed rank from ever re-entering MPI.
        """
        if rank in world.crashed:
            raise _RankSelfCrash(f"rank {rank} has crashed and may not call MPI")
        cf = self._crash_for.get(rank)
        if cf is not None and cf.at_time is not None and now >= cf.at_time:
            world.crash_rank(rank, f"scheduled crash at t={cf.at_time:g}")
            raise _RankSelfCrash(
                f"rank {rank} crashed at virtual t={now:.6g} "
                f"(scheduled at t={cf.at_time:g})"
            )

    # -- message faults ----------------------------------------------------

    def _fires(self, key: str, sel, src: int, dst: int, tag: int, nbytes: int) -> bool:
        if not sel.matches(src, dst, tag, nbytes):
            return False
        k = (key, src)
        ordinal = self._matched.get(k, 0)
        self._matched[k] = ordinal + 1
        if ordinal < sel.after_n:
            return False
        if sel.count is not None and self._fired.get(k, 0) >= sel.count:
            return False
        if sel.probability < 1.0:
            if _uniform(self.plan.seed, key, src, dst, ordinal) >= sel.probability:
                return False
        self._fired[k] = self._fired.get(k, 0) + 1
        return True

    def on_send(
        self, world: "World", src: int, dst: int, tag: int, nbytes: int, now: float
    ) -> Optional[SendDecision]:
        """Evaluate every message fault against one send attempt.

        Returns ``None`` for a clean send.  May raise
        :class:`~repro.errors._RankSelfCrash` for an ``on_nth_send``
        crash trigger — the message is then never sent.
        """
        total = self._sends.get(src, 0) + 1
        self._sends[src] = total
        cf = self._crash_for.get(src)
        if cf is not None and cf.on_nth_send is not None and total >= cf.on_nth_send:
            world.crash_rank(src, f"crash on send #{cf.on_nth_send}")
            raise _RankSelfCrash(
                f"rank {src} crashed on send attempt #{total} "
                f"(scheduled on send #{cf.on_nth_send})"
            )
        decision = SendDecision()
        for f in self.plan.drops:
            if self._fires(f.key, f.selector, src, dst, tag, nbytes):
                decision.drop = True
        for f in self.plan.duplicates:
            if self._fires(f.key, f.selector, src, dst, tag, nbytes):
                decision.copies += f.copies
        for f in self.plan.delays:
            if self._fires(f.key, f.selector, src, dst, tag, nbytes):
                decision.extra_delay += f.seconds
                decision.delayed = True
        for f in self.plan.slow_links:
            if self._fires(f.key, f.selector, src, dst, tag, nbytes):
                decision.net_factor *= f.factor
                decision.extra_delay += f.per_byte * nbytes
                decision.slowed = True
        return decision if decision.any else None

    def finalize_send(
        self, decision: SendDecision, env: Envelope
    ) -> tuple[bool, list[Envelope]]:
        """Record the decision's trace events against the built envelope;
        returns ``(dropped, duplicate_envelopes)`` for the communicator
        to act on.  Duplicates are delivered eagerly (they model the
        network re-delivering a payload, not a second rendezvous)."""
        t = env.send_time

        def mark(primitive: str, msg_id: int) -> None:
            self.tracer.record(
                env.source, "fault", primitive, env.nbytes, t, t,
                peer=env.dest, cid=env.comm_cid, msg_id=msg_id,
            )
            self.metrics.counter(
                "smpi.faults.injected", kind=primitive.removeprefix("fault_")
            ).inc()

        if decision.drop:
            mark("fault_drop", env.seq)
        if decision.delayed:
            mark("fault_delay", env.seq)
        if decision.slowed:
            mark("fault_slowdown", env.seq)
        duplicates: list[Envelope] = []
        for _ in range(decision.copies):
            dup = Envelope(
                source=env.source,
                dest=env.dest,
                tag=env.tag,
                payload=copy_payload(env.payload),
                nbytes=env.nbytes,
                send_time=env.send_time,
                net_time=env.net_time,
                rendezvous=False,
                arrival_time=env.send_time + env.net_time,
                comm_cid=env.comm_cid,
                seq=self.next_seq(),
            )
            mark("fault_duplicate", dup.seq)
            duplicates.append(dup)
        return decision.drop, duplicates

    # -- reporting ---------------------------------------------------------

    def fired_counts(self) -> dict[str, int]:
        """Total fires per fault key (crashes counted via the trace)."""
        out: dict[str, int] = {}
        for (key, _src), n in sorted(self._fired.items()):
            out[key] = out.get(key, 0) + n
        return out
