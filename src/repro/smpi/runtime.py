"""The simulated-MPI world: rank threads, virtual time, matching, deadlock.

Each rank runs as an OS thread executing ordinary blocking code against a
:class:`~repro.smpi.communicator.Comm`.  All shared state (matching
queues, collective contexts, the blocked-rank set) is guarded by one
world lock, but each rank parks on its **own** condition variable (all
sharing that lock), so an event wakes only the ranks whose wait it could
have satisfied: a message delivery notifies the destination, a
rendezvous/handshake completion notifies the sender, a finished
collective notifies the communicator's group, and only world-scoped
events (abort, crash, rank exit, revoke, deadlock) broadcast.  This
eliminates the O(ranks²) thundering herd of the historical single
``notify_all`` condition.

**Invariant — mutate, then notify, under the lock**: every wakeup goes
through the ``notify_*_locked`` funnels below, which assert the world
lock is held; callers must finish *all* shared-state mutation for an
event before notifying, and must not release the lock in between.  A
woken rank re-checks its predicate under the same lock, so it can never
observe a half-updated ``World`` snapshot.

Virtual time: each rank owns a :class:`~repro.smpi.clock.VirtualClock`.
Point-to-point transfers cost ``alpha + n*beta`` with intra- vs
inter-node parameters chosen from the rank placement; compute phases are
charged through the roofline model with the rank's *share* of its node's
memory bandwidth (see :mod:`repro.cluster.contention`).  Because the
clock is virtual, experiments are deterministic and a "cluster run" takes
milliseconds of real time.

Deadlock detection: a rank that blocks registers a ``can_proceed``
probe.  Whenever every live rank is blocked and no probe is satisfiable,
the world aborts all ranks with :class:`~repro.errors.DeadlockError`
describing each rank's blocking call — turning the classic hung ring of
blocking sends (Module 1) into an immediate, explainable failure.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.cluster.contention import BandwidthArbiter
from repro.cluster.machine import ClusterSpec, Placement
from repro.cluster.roofline import ComputeCostModel
from repro.errors import (
    CommAbortError,
    DeadlockError,
    SMPIError,
    SmpiRevokedError,
    SmpiTimeoutError,
    _RankSelfCrash,
)
from repro.obs.metrics import MetricsRegistry
from repro.smpi.clock import VirtualClock
from repro.smpi.collectives import CollectiveTable, NetParams
from repro.smpi.ft import FtContext, FtTable
from repro.smpi.message import Envelope, MatchingQueues, PostedRecv
from repro.smpi.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.sanitize.sanitizer import Sanitizer

#: Ambient sanitizer installed by :func:`repro.sanitize.capture` — lets
#: the sanitizer intercept worlds created deep inside workload runners
#: (e.g. the pitfall demos call :func:`run` themselves) without changing
#: their signatures.  An explicit ``sanitizer=`` argument wins.
_active_sanitizer: Optional["Sanitizer"] = None

#: hang guard — re-check loop period (real seconds); never hit in practice.
#: Every state change that can unblock or kill a waiter (message delivery,
#: abort, crash, timeout decision, rank exit) must notify the affected
#: rank(s) so that waiters never actually ride this out —
#: tests/smpi/test_abort_promptness.py asserts propagation is prompt and
#: not busy-waiting.  This fallback is **instrumented, not silent**: a
#: rank that rides it out and finds its wait resolvable afterwards is a
#: lost-wakeup bug, counted in the ``smpi.wakeups.missed`` metric and
#: failed on by the golden stress tests.
_POLL_TIMEOUT = 10.0


@dataclass
class _BlockInfo:
    """Bookkeeping for one blocked rank.

    ``deadline`` is an optional virtual-time timeout: a rank blocked with
    a deadline never deadlocks — when the world would otherwise declare
    deadlock, the earliest-deadline waiter is told to time out instead
    (``timed_out`` flips and the waiter raises
    :class:`~repro.errors.SmpiTimeoutError`).
    """

    description: str
    can_proceed: Callable[[], bool]
    deadline: Optional[float] = None
    failure: Optional[Callable[[], Optional[BaseException]]] = None
    cid: Optional[int] = None
    timed_out: bool = field(default=False, compare=False)


class World:
    """Shared state of one simulated MPI job.

    Users normally go through :func:`run` / :func:`launch` rather than
    constructing a ``World`` directly.
    """

    def __init__(
        self,
        nprocs: int,
        *,
        cluster: Optional[ClusterSpec] = None,
        placement: Optional[Placement] = None,
        trace: bool = True,
        external_demand: Optional[dict[int, float]] = None,
        faults: Optional["FaultPlan"] = None,
        sanitizer: Optional["Sanitizer"] = None,
    ):
        if nprocs < 1:
            raise SMPIError(f"nprocs must be >= 1, got {nprocs}")
        if cluster is None:
            if placement is not None:
                cluster = placement.cluster
            else:
                node_cores = 32
                cluster = ClusterSpec.monsoon_like(
                    num_nodes=max(1, math.ceil(nprocs / node_cores))
                )
        if placement is None:
            placement = Placement.block(cluster, nprocs)
        if placement.nprocs != nprocs:
            raise SMPIError(
                f"placement covers {placement.nprocs} ranks but nprocs={nprocs}"
            )
        self.nprocs = nprocs
        self.cluster = cluster
        self.placement = placement
        self.arbiter = BandwidthArbiter(cluster, placement)
        if external_demand:
            for node, demand in external_demand.items():
                self.arbiter.set_external_demand(node, demand)
        self.tracer = Tracer(trace)
        self.metrics = MetricsRegistry()

        self.lock = threading.Lock()
        # One condition per rank, all sharing the world lock: waiters park
        # on their own condition so events can wake exactly the ranks they
        # concern (see the module docstring for the notify invariant).
        self._rank_conds = [threading.Condition(self.lock) for _ in range(nprocs)]
        #: wakeup accounting (plain ints mutated under the lock; published
        #: as ``smpi.wakeups.*`` counters at the end of :func:`launch`).
        #: ``missed`` must stay 0 — a nonzero count means a waiter was
        #: rescued by the fallback poll, i.e. a targeted notify went
        #: missing (the lost-wakeup bug class this design removes).
        self.wakeup_stats = {"targeted": 0, "broadcast": 0, "missed": 0}
        #: per-rank message tallies, ``(peer, primitive) -> [messages,
        #: bytes]`` (primitive ``None`` for receives).  Each is written
        #: only by its own rank's thread, so it takes no lock.
        self.tallies = [defaultdict(lambda: [0, 0]) for _ in range(nprocs)]
        self.queues = [MatchingQueues(r) for r in range(nprocs)]
        self.clocks = [VirtualClock() for _ in range(nprocs)]
        self.live: set[int] = set(range(nprocs))
        self.crashed: set[int] = set()
        self.blocked: dict[int, _BlockInfo] = {}
        self.abort_exc: Optional[BaseException] = None
        self.abort_origin: str = ""
        # The sanitizer hook object (repro.sanitize).  None on the hot
        # path: every hook site gates on ``world.sanitizer is not None``
        # so a plain run pays a single attribute load, nothing more.
        self.sanitizer = sanitizer if sanitizer is not None else _active_sanitizer
        #: rank -> held wildcard PostedRecv awaiting stall-time resolution
        self.wildcard_holds: dict[int, PostedRecv] = {}
        self.faults = None
        if faults is not None and not faults.empty:
            # Local import: repro.faults depends on repro.smpi for types.
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(faults, nprocs, self.tracer, self.metrics)

        self._coll_tables: dict[int, CollectiveTable] = {}
        self._comm_groups: dict[int, tuple[int, ...]] = {}
        self._next_cid = 0
        self._split_cids: dict[tuple, int] = {}

        # ULFM-style recovery state: revoked communicator ids (grow-only,
        # so lock-free membership reads are safe) and per-cid tables of
        # shrink/agree rendezvous contexts.
        self.revoked_cids: set[int] = set()
        self._ft_tables: dict[int, FtTable] = {}

    # -- communicator/group registry ------------------------------------

    def new_comm_cid(self, group: Sequence[int]) -> int:
        """Register a communicator group; returns its context id."""
        with self.lock:
            return self._register_group_locked(tuple(group))

    def _register_group_locked(self, group: tuple[int, ...]) -> int:
        cid = self._next_cid
        self._next_cid += 1
        self._comm_groups[cid] = group
        self._coll_tables[cid] = CollectiveTable(len(group), metrics=self.metrics)
        return cid

    def split_cid(self, key: tuple, group: tuple[int, ...]) -> int:
        """Idempotently allocate a cid for a split/dup result group.

        All member ranks compute the same ``key`` from allgathered data,
        so the first caller allocates and the rest reuse.
        """
        with self.lock:
            cid = self._split_cids.get(key)
            if cid is None:
                cid = self._register_group_locked(group)
                self._split_cids[key] = cid
            return cid

    def group_of(self, cid: int) -> tuple[int, ...]:
        return self._comm_groups[cid]

    def coll_table(self, cid: int) -> CollectiveTable:
        return self._coll_tables[cid]

    # -- cost helpers ----------------------------------------------------

    def ptp_net_time(self, src: int, dst: int, nbytes: int) -> float:
        """Transfer time of one ``nbytes`` message between world ranks."""
        same = self.placement.same_node(src, dst)
        return self.cluster.network.ptp_time(nbytes, same_node=same)

    def ptp_overhead(self, src: int, dst: int) -> float:
        """Sender-side cost of injecting one message (the alpha term)."""
        net = self.cluster.network
        return net.alpha_intra if self.placement.same_node(src, dst) else net.alpha_inter

    def net_params(self, group: Sequence[int]) -> NetParams:
        """Effective Hockney parameters for a collective over ``group``."""
        nodes = {self.placement.node(r) for r in group}
        net = self.cluster.network
        if len(nodes) > 1:
            return NetParams(alpha=net.alpha_inter, beta=net.beta_inter)
        return NetParams(alpha=net.alpha_intra, beta=net.beta_intra)

    def compute_model(self, rank: int) -> ComputeCostModel:
        """Roofline model with this rank's current bandwidth share."""
        return ComputeCostModel(
            flops_per_s=self.cluster.node.flops_per_core,
            bandwidth=self.arbiter.bandwidth_share(rank),
        )

    def is_rendezvous(self, nbytes: int) -> bool:
        return nbytes > self.cluster.network.eager_threshold

    # -- wakeup funnels ----------------------------------------------------
    #
    # Every notify in the runtime goes through these three methods.  The
    # contract (asserted, and documented in the module docstring): the
    # caller holds the world lock and has *finished mutating* the shared
    # state that makes the woken rank's predicate true — notify is always
    # the last step of an event, before the lock is released.

    def notify_rank_locked(self, rank: int) -> None:
        """Wake one rank's condition (no-op cost if it is not waiting)."""
        assert self.lock.locked(), "notify requires the world lock (mutate-then-notify)"
        self.wakeup_stats["targeted"] += 1
        self._rank_conds[rank].notify_all()

    def notify_ranks_locked(self, ranks: Sequence[int]) -> None:
        """Wake a set of world ranks (e.g. a communicator group)."""
        assert self.lock.locked(), "notify requires the world lock (mutate-then-notify)"
        self.wakeup_stats["targeted"] += len(ranks)
        conds = self._rank_conds
        for rank in ranks:
            conds[rank].notify_all()

    def notify_all_locked(self) -> None:
        """Broadcast — world-scoped events only (abort, crash, rank exit,
        revoke, deadlock), where any rank's predicate may have changed."""
        assert self.lock.locked(), "notify requires the world lock (mutate-then-notify)"
        self.wakeup_stats["broadcast"] += 1
        for cond in self._rank_conds:
            cond.notify_all()

    # -- blocking / deadlock ----------------------------------------------

    def check_abort_locked(self) -> None:
        if self.abort_exc is not None:
            if isinstance(self.abort_exc, DeadlockError):
                raise self.abort_exc
            raise CommAbortError(
                f"world aborted ({self.abort_origin}): {self.abort_exc!r}"
            )

    def block(
        self,
        rank: int,
        take: Callable[[], Any],
        can_proceed: Callable[[], bool],
        description: str,
        failure: Optional[Callable[[], Optional[BaseException]]] = None,
        deadline: Optional[float] = None,
        cid: Optional[int] = None,
    ) -> Any:
        """Block ``rank`` until ``take()`` returns non-None.

        ``take`` both checks and consumes (e.g. removes a matched
        envelope); ``can_proceed`` is a side-effect-free satisfiability
        probe used by the deadlock detector.  Caller must hold the world
        lock.

        ``failure`` (optional) is probed on every wake-up *after* ``take``
        — so an already-available result still wins — and any exception it
        returns is raised in the blocked rank (the crashed-peer path).
        ``deadline`` (optional, virtual seconds) registers a timeout: if
        the world stalls and this waiter holds the earliest deadline, the
        block raises :class:`~repro.errors.SmpiTimeoutError` instead of
        the world declaring deadlock.
        ``cid`` (optional) ties the block to a communicator: if that
        communicator is revoked, the block raises
        :class:`~repro.errors.SmpiRevokedError`.  The check runs *after*
        ``take`` and ``failure`` so it is deterministic: an operation
        whose completion (or whose peer's crash) was already established
        in virtual time resolves the same way no matter how the
        revocation races with this rank's wake-up — revocation only
        poisons waits that cannot otherwise resolve.
        """
        info = _BlockInfo(description, can_proceed, deadline, failure, cid)
        cond = self._rank_conds[rank]

        def _resolvable() -> bool:
            # Everything the loop head acts on: a true predicate here
            # means another wait iteration would not park again.
            return (
                info.timed_out
                or self.abort_exc is not None
                or can_proceed()
                or (cid is not None and cid in self.revoked_cids)
                or (failure is not None and failure() is not None)
            )

        while True:
            self.check_abort_locked()
            result = take()
            if result is not None:
                return result
            if failure is not None:
                exc = failure()
                if exc is not None:
                    raise exc
            if cid is not None and cid in self.revoked_cids:
                raise SmpiRevokedError(
                    f"{description}: communicator {cid} has been revoked"
                )
            if info.timed_out:
                raise SmpiTimeoutError(
                    f"{description} timed out after {deadline:.6g} virtual s"
                )
            self.blocked[rank] = info
            try:
                self._deadlock_check_locked()
                # The check may have timed *us* out, aborted the world,
                # satisfied our own wait (a held wildcard receive resolves
                # inside our entry check), or fired our own failure probe
                # — all of which notify our condition *before* we park, so
                # the notify is lost.  Re-loop instead of waiting on it.
                if _resolvable():
                    continue
                if not cond.wait(timeout=_POLL_TIMEOUT):
                    # The fallback poll fired.  If the wait is resolvable
                    # *now*, the notify that should have woken us never
                    # came: a lost wakeup.  The poll used to mask these
                    # silently — now they are counted and tests fail on
                    # any nonzero ``smpi.wakeups.missed``.
                    if _resolvable():
                        self.wakeup_stats["missed"] += 1
            finally:
                self.blocked.pop(rank, None)

    def _deadlock_check_locked(self) -> None:
        if self.abort_exc is not None:
            return
        if not self.live or len(self.blocked) < len(self.live):
            return
        if any(info.can_proceed() for info in self.blocked.values()):
            return
        # True quiescence: every live rank is blocked and none can make
        # progress.  Sanitized wildcard receives are *held* — they never
        # match eagerly — and are resolved only here, where the queues
        # hold the maximal progress closure of the program: a state that
        # is unique regardless of OS thread interleaving (deliveries and
        # completions are monotone), so the candidate set — and with it
        # the whole sanitized execution — is deterministic.  Resolve one
        # hold, wake its waiter, and let the world run on.
        if self.wildcard_holds and self._resolve_wildcard_holds_locked():
            return
        # The world has stalled.  Escape hatches fire before anyone
        # declares deadlock, in order of definitiveness:
        # 1) a waiter whose failure probe fires (e.g. its peer crashed)
        #    is woken to raise rather than hang.  Probing may itself
        #    abort the world (the ERRORS_ARE_FATAL path, which broadcasts
        #    through ``abort_locked``) — that is the intended semantic,
        #    and the early return below covers it.
        for rank, info in self.blocked.items():
            if info.failure is not None and info.failure() is not None:
                self.notify_rank_locked(rank)
                return
        if self.abort_exc is not None:
            return  # abort_locked already broadcast
        # 2) waiters with a deadline time out (in deadline order, one at
        #    a time — timing out may unstall the rest).
        pending = [
            (info.deadline, rank)
            for rank, info in self.blocked.items()
            if info.deadline is not None and not info.timed_out
        ]
        if pending:
            _, rank = min(pending)
            self.blocked[rank].timed_out = True
            self.notify_rank_locked(rank)
            return
        # 3) a timeout already handed out but not yet processed (its
        #    waiter holds no lock between being marked and waking up) is
        #    still an escape route, not a deadlock.
        timed = [rank for rank, info in self.blocked.items() if info.timed_out]
        if timed:
            self.notify_ranks_locked(timed)
            return
        # 4) a waiter blocked on a revoked communicator will raise
        #    SmpiRevokedError on its next wake-up — wake it rather than
        #    declaring the stall a deadlock.
        if self.revoked_cids:
            poisoned = [
                rank
                for rank, info in self.blocked.items()
                if info.cid is not None and info.cid in self.revoked_cids
            ]
            if poisoned:
                self.notify_ranks_locked(poisoned)
                return
        if self.sanitizer is not None:
            self.sanitizer.on_deadlock(
                {r: i.description for r, i in self.blocked.items()},
                set(self.live),
                set(self.crashed),
            )
        lines = [
            f"  rank {rank}: {info.description}"
            for rank, info in sorted(self.blocked.items())
        ]
        self.abort_exc = DeadlockError(
            "deadlock detected — every live rank is blocked and no message "
            "can ever arrive:\n" + "\n".join(lines)
        )
        self.abort_origin = "deadlock"
        self.notify_all_locked()

    def _resolve_wildcard_holds_locked(self) -> bool:
        """Match one held wildcard receive at a global stall.

        Candidates are the head-of-line matchable envelope of each
        source (non-overtaking).  The sanitizer's ``match_order`` picks
        deterministically among them by ``(send_time, source)`` —
        ``"first"`` takes the earliest send, ``"last"`` the latest; a
        replay that flips the order perturbs exactly the schedule
        freedom MPI grants a wildcard receive, nothing else.  Returns
        True if a hold was resolved (the stall is over).
        """
        san = self.sanitizer
        for rank in sorted(self.wildcard_holds):
            pr = self.wildcard_holds[rank]
            if pr.envelope is not None:
                continue
            q = self.queues[pr.dest]
            candidates = q.first_matching_per_source(pr.source, pr.tag, pr.comm_cid)
            if not candidates:
                continue
            chosen = (max if san is not None and san.match_order == "last" else min)(
                candidates, key=lambda env: (env.send_time, env.source)
            )
            q.remove_unexpected(chosen)
            q.cancel(pr)
            pr.envelope = chosen
            del self.wildcard_holds[rank]
            if san is not None:
                san.on_wildcard_match(pr, chosen, candidates)
                now = self.clocks[pr.dest].now
                self.tracer.record(
                    pr.dest, "sanitize", "wildcard_match", chosen.nbytes,
                    now, now, peer=chosen.source, cid=pr.comm_cid,
                )
                self.metrics.counter(
                    "smpi.sanitize.wildcard_matches", rank=pr.dest
                ).inc()
            # Only the held receive's owner can have been unblocked (the
            # resolver runs at a global stall, so everyone else's
            # predicate is unchanged).  If that owner is the rank running
            # this very check, the pre-park re-probe in :meth:`block`
            # catches the self-notify.
            self.notify_rank_locked(pr.dest)
            return True
        return False

    def abort(self, exc: BaseException, origin: str) -> None:
        """Abort the world (first error wins); wakes every blocked rank."""
        with self.lock:
            self.abort_locked(exc, origin)

    def abort_locked(self, exc: BaseException, origin: str) -> None:
        """Abort with the world lock already held.

        The single funnel for every abort path: it always notifies, so a
        rank parked in ``cond.wait`` observes the abort immediately
        rather than riding out the poll timeout.
        """
        if self.abort_exc is None:
            self.abort_exc = exc
            self.abort_origin = origin
        self.notify_all_locked()

    def crash_rank(self, rank: int, reason: str) -> None:
        """Kill one rank (fault injection): it leaves the live set, its
        crash is recorded as a ``fault_crash`` trace event, and every
        blocked rank is woken so crashed-peer probes fire promptly."""
        with self.lock:
            if rank in self.crashed:
                return
            self.crashed.add(rank)
            self.live.discard(rank)
            now = self.clocks[rank].now
            self.tracer.record(rank, "fault", "fault_crash", 0, now, now)
            self.metrics.counter("smpi.faults.injected", kind="crash").inc()
            self._deadlock_check_locked()
            # Broadcast: any rank's crashed-peer failure probe or ft
            # rendezvous readiness may have changed.  All crash state is
            # mutated above, before the notify (the documented invariant).
            self.notify_all_locked()

    def finish_rank(self, rank: int) -> None:
        """Mark a rank's main function as returned.

        Broadcasts (rank exit is world-scoped: shrink/agree readiness and
        the deadlock census both depend on the live set) — and only after
        the live-set mutation and detector pass, so a woken rank never
        sees a half-updated world.
        """
        with self.lock:
            self.live.discard(rank)
            self._deadlock_check_locked()
            self.notify_all_locked()

    # -- ULFM-style recovery ----------------------------------------------

    def revoke_cid(self, cid: int) -> bool:
        """Revoke a communicator; returns True if this call revoked it.

        Revocation is world-global and immediate: unexpected messages on
        the communicator are purged, and every rank blocked (or later
        blocking) on it raises :class:`~repro.errors.SmpiRevokedError`.
        """
        with self.lock:
            if cid in self.revoked_cids:
                return False
            self.revoked_cids.add(cid)
            for q in self.queues:
                q.purge_cid(cid)
            self.notify_all_locked()
            return True

    def ft_table(self, cid: int) -> FtTable:
        """Per-communicator shrink/agree table (caller holds the lock)."""
        table = self._ft_tables.get(cid)
        if table is None:
            table = FtTable(self._comm_groups[cid])
            self._ft_tables[cid] = table
        return table

    def ft_poll_locked(self, ctx: FtContext) -> Optional[bool]:
        """``take`` probe for a rank blocked in shrink/agree.

        The first waker that observes the rendezvous ready finalizes it
        for everyone (survivor list, result/new cid, completion time).
        """
        if not ctx.done and ctx.ready(self.live):
            alpha = self.net_params(
                [ctx.group[r] for r in sorted(ctx.contribs)]
            ).alpha
            ctx.finalize(alpha, self._register_group_locked)
            # Only the rendezvous participants can have been unblocked.
            self.notify_ranks_locked(ctx.group)
        return True if ctx.done else None

    # -- point-to-point internals -----------------------------------------

    def deliver_locked(self, env: Envelope) -> Optional[PostedRecv]:
        """Hand an envelope to its destination (caller holds the lock).

        A rendezvous message that finds a *pre-posted* receive starts
        transferring immediately (the handshake completes at match
        time), which is what lets ``irecv``-before-``isend`` overlap
        communication with computation exactly as on a real MPI.
        """
        pr = self.queues[env.dest].match_arriving(env)
        if pr is not None and env.rendezvous and env.completion_time is None:
            env.completion_time = max(env.send_time, pr.post_time) + env.net_time
            env.arrival_time = env.completion_time
        # Only the destination's wait (recv/irecv/probe) can have become
        # satisfiable; the queue mutation above precedes the notify.
        self.notify_rank_locked(env.dest)
        return pr

    def publish_runtime_counters(self) -> None:
        """Fold the raw fast-path counters into the metrics registry.

        Message, wakeup and match accounting is kept as plain ints on the
        hot path (a registry lookup per message would cost more than the
        matching itself); :func:`launch` publishes them once, after the
        rank threads join, as ``smpi.bytes_sent``/``messages_sent``/
        ``bytes_recv``, ``smpi.wakeups.*`` and ``smpi.match.*``.
        """
        counter = self.metrics.counter
        for rank, tally in enumerate(self.tallies):
            for (peer, primitive), (messages, nbytes) in tally.items():
                if primitive is None:
                    counter("smpi.bytes_recv", rank=rank, peer=peer).inc(nbytes)
                    continue
                counter(
                    "smpi.bytes_sent", rank=rank, peer=peer, primitive=primitive
                ).inc(nbytes)
                counter("smpi.messages_sent", rank=rank, primitive=primitive).inc(
                    messages
                )
        for key, value in self.wakeup_stats.items():
            self.metrics.counter(f"smpi.wakeups.{key}").inc(value)
        totals: dict[str, int] = {}
        for q in self.queues:
            for key, value in q.stats.items():
                totals[key] = totals.get(key, 0) + value
        for key, value in totals.items():
            self.metrics.counter(f"smpi.match.{key}").inc(value)

    def elapsed(self) -> float:
        """Virtual makespan: the maximum rank clock (the job's runtime)."""
        return max(c.now for c in self.clocks)

    def rank_time(self, rank: int) -> float:
        return self.clocks[rank].now


@dataclass
class RunResult:
    """Everything :func:`launch` returns about a finished world.

    ``error`` is only ever non-None when :func:`launch` was called with
    ``check=False`` (the fault-drill path): it carries the exception that
    would otherwise have been raised, with the world still attached for
    post-mortem trace analysis.
    """

    results: list[Any]
    world: World
    error: Optional[BaseException] = None

    @property
    def elapsed(self) -> float:
        """Virtual makespan of the job (seconds)."""
        return self.world.elapsed()

    @property
    def tracer(self) -> Tracer:
        return self.world.tracer

    @property
    def metrics(self) -> MetricsRegistry:
        return self.world.metrics


def launch(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    cluster: Optional[ClusterSpec] = None,
    placement: Optional[Placement] = None,
    trace: bool = True,
    external_demand: Optional[dict[int, float]] = None,
    faults: Optional["FaultPlan"] = None,
    sanitizer: Optional["Sanitizer"] = None,
    check: bool = True,
    **kwargs: Any,
) -> RunResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    Returns a :class:`RunResult` carrying per-rank return values plus the
    world (clocks, tracer) for performance analysis.  Any exception in a
    rank aborts the whole job and is re-raised here; a detected deadlock
    raises :class:`~repro.errors.DeadlockError`.

    ``faults`` schedules a :class:`~repro.faults.FaultPlan` against the
    run (message drop/delay/duplication, straggler links, rank crashes).
    With ``check=False`` an aborting run does not raise: the abort
    exception lands on :attr:`RunResult.error` with the world attached,
    so fault drills can analyse the trace of a failed job.
    """
    from repro.smpi.communicator import Comm  # local import breaks the cycle

    world = World(
        nprocs,
        cluster=cluster,
        placement=placement,
        trace=trace,
        external_demand=external_demand,
        faults=faults,
        sanitizer=sanitizer,
    )
    if world.sanitizer is not None:
        world.sanitizer.on_world_start(world)
    world_cid = world.new_comm_cid(range(nprocs))
    comms = [Comm(world, world_cid, rank) for rank in range(nprocs)]
    results: list[Any] = [None] * nprocs

    def _main(rank: int) -> None:
        try:
            results[rank] = fn(comms[rank], *args, **kwargs)
        except CommAbortError:
            pass  # collateral damage of another rank's failure
        except _RankSelfCrash:
            pass  # injected crash: this rank dies, the world lives on
        except BaseException as exc:  # noqa: BLE001 - must propagate any error
            world.abort(exc, f"rank {rank}")
        finally:
            world.finish_rank(rank)

    threads = [
        threading.Thread(target=_main, args=(rank,), name=f"smpi-rank-{rank}")
        for rank in range(nprocs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    world.publish_runtime_counters()
    if world.sanitizer is not None:
        world.sanitizer.on_world_finish(world, results, world.abort_exc)
    if world.abort_exc is not None:
        if check:
            raise world.abort_exc
        return RunResult(results=results, world=world, error=world.abort_exc)
    world.metrics.gauge("smpi.world.makespan").set(world.elapsed())
    world.metrics.gauge("smpi.world.nprocs").set(nprocs)
    for rank in range(nprocs):
        world.metrics.gauge("smpi.rank.time", rank=rank).set(world.rank_time(rank))
    return RunResult(results=results, world=world)


def run(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    **kwargs: Any,
) -> list[Any]:
    """Like :func:`launch` but returns only the per-rank return values."""
    return launch(nprocs, fn, *args, **kwargs).results
