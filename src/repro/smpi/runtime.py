"""The simulated-MPI world: rank threads, virtual time, matching, deadlock.

Each rank runs as an OS thread executing ordinary blocking code against a
:class:`~repro.smpi.communicator.Comm`, but only one rank runs at a time:
the one holding the world's baton.  Inside an smpi call that blocks (or
polls without success), and when its main function returns, a rank hands
the baton to the first rank of the *ready set*, which starts as every
rank in rank order.  Events add the ranks whose wait they may resolve: a
delivery adds the destination, a rendezvous match the sender, a finished
collective or shrink/agree the group, and world-scoped events (abort,
crash, rank exit, revoke, deadlock) every blocked rank in rank order.
The schedule, and with it every trace, message id and wildcard match,
depends only on the program.

**Rule for rank code**: it may block only in smpi calls.  A rank waiting
on anything else (a lock or a queue another rank fills) waits forever,
because no other rank runs until it hands the baton on.  A lock whose
holder makes no smpi call while holding it, such as
``repro.modules.module4_range._INDEX_CACHE_LOCK``, is safe.

Deadlock detection: an empty ready set means every live rank is blocked.
Unless a wait was missed, a sanitizer hold resolves or a deadline
expires (see :meth:`World._stall_locked`), the world aborts all ranks
with :class:`~repro.errors.DeadlockError` describing each rank's
blocking call — turning the classic hung ring of blocking sends
(Module 1) into an immediate, explainable failure.

Virtual time: each rank owns a :class:`~repro.smpi.clock.VirtualClock`.
Point-to-point transfers cost ``alpha + n*beta`` with intra- vs
inter-node parameters chosen from the rank placement; compute phases are
charged through the roofline model with the rank's *share* of its node's
memory bandwidth (see :mod:`repro.cluster.contention`).  Because the
clock is virtual, experiments are deterministic and a "cluster run" takes
milliseconds of real time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
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
from repro.smpi.collectives import CallTable, CollectiveContext, NetParams
from repro.smpi.ft import FtContext
from repro.smpi.message import Envelope, MatchingQueues, PostedRecv
from repro.smpi.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.sanitize.sanitizer import Sanitizer

#: Ambient sanitizer installed by :func:`repro.sanitize.capture` — lets
#: the sanitizer intercept worlds created deep inside workload runners
#: (e.g. the pitfall demos call :func:`run` themselves) without changing
#: their signatures.  A :class:`World` reads it in the thread that
#: constructs it, so a capture in one thread never reaches a world built
#: by another.  An explicit ``sanitizer=`` argument wins.
_active_sanitizer: contextvars.ContextVar[Optional["Sanitizer"]] = contextvars.ContextVar(
    "repro_active_sanitizer", default=None
)


@dataclass
class _BlockInfo:
    """Bookkeeping for one blocked rank.

    ``deadline`` is an optional virtual-time timeout: a rank blocked with
    a deadline never deadlocks — when the world stalls, the
    earliest-deadline waiter is told to time out instead (``timed_out``
    flips, the waiter is made ready and raises
    :class:`~repro.errors.SmpiTimeoutError`).
    """

    description: str
    take: Callable[[], Any]
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
        # The baton: one binary semaphore per rank, all taken here.  A
        # rank runs only between acquiring its own and releasing the next
        # runner's.
        self._batons = [threading.Lock() for _ in range(nprocs)]
        for baton in self._batons:
            baton.acquire()
        #: ranks waiting for the baton, in the order they will get it.
        self.ready: dict[int, None] = dict.fromkeys(range(nprocs))
        #: scheduler accounting (plain ints mutated under the lock;
        #: published as ``smpi.wakeups.*`` counters at the end of
        #: :func:`launch`): ``targeted`` counts the ranks named by a
        #: delivery, match, finished collective, hold or timeout, blocked
        #: or not; ``broadcast`` counts world-scoped events; ``missed``
        #: counts blocked ranks the stall pass found already resolvable.
        #: ``missed`` must stay 0: nonzero means an event forgot a waiter.
        self.wakeup_stats = {"targeted": 0, "broadcast": 0, "missed": 0}
        #: message ids (``Envelope.seq``/``PostedRecv.seq``) of this world.
        self.next_seq = itertools.count().__next__
        #: per-rank message tallies, ``(peer, primitive) -> [messages,
        #: bytes]`` (primitive ``None`` for receives).  Each is written
        #: only by its own rank's thread, so it takes no lock.
        self.tallies = [defaultdict(lambda: [0, 0]) for _ in range(nprocs)]
        self.queues = [MatchingQueues(r) for r in range(nprocs)]
        self.clocks = [VirtualClock() for _ in range(nprocs)]
        self.live: set[int] = set(range(nprocs))
        self.crashed: set[int] = set()
        self.blocked: dict[int, _BlockInfo] = {}
        # The off-by-default hooks: an abort (``abort_exc``), the sanitizer
        # (repro.sanitize), the fault injector (repro.faults) and revoked
        # communicators.  Every hook site tests its hook where it is called
        # (``is not None``, or ``revoked_cids`` non-empty) before making
        # any call, so a plain run pays one attribute load per hook.
        self.abort_exc: Optional[BaseException] = None
        self.abort_origin: str = ""
        self.sanitizer = sanitizer if sanitizer is not None else _active_sanitizer.get()
        #: rank -> held wildcard PostedRecv awaiting stall-time resolution
        self.wildcard_holds: dict[int, PostedRecv] = {}
        self.faults = None
        if faults is not None and not faults.empty:
            # Local import: repro.faults depends on repro.smpi for types.
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(
                faults, nprocs, self.tracer, self.metrics, self.next_seq
            )

        self._coll_tables: dict[int, CallTable] = {}
        self._comm_groups: dict[int, tuple[int, ...]] = {}
        self._next_cid = 0
        self._split_cids: dict[tuple, int] = {}

        # ULFM-style recovery state: revoked communicator ids (grow-only,
        # so lock-free membership reads are safe) and per-cid tables of
        # shrink/agree rendezvous contexts.
        self.revoked_cids: set[int] = set()
        self._ft_tables: dict[int, CallTable] = {}

    # -- communicator/group registry ------------------------------------

    def new_comm_cid(self, group: Sequence[int]) -> int:
        """Register a communicator group; returns its context id."""
        with self.lock:
            return self._register_group_locked(tuple(group))

    def _register_group_locked(self, group: tuple[int, ...]) -> int:
        cid = self._next_cid
        self._next_cid += 1
        self._comm_groups[cid] = group
        # The factory binds only what a context needs: a closure over
        # ``self`` would make every world a reference cycle.
        self._coll_tables[cid] = CallTable(
            len(group),
            functools.partial(CollectiveContext, size=len(group), metrics=self.metrics),
            "collective",
        )
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

    def coll_table(self, cid: int) -> CallTable:
        return self._coll_tables[cid]

    # -- cost helpers ----------------------------------------------------

    def ptp_net_time(self, src: int, dst: int, nbytes: int) -> float:
        """Transfer time of one ``nbytes`` message between world ranks."""
        node = self.placement.node_of_rank
        return self.cluster.network.ptp_time(nbytes, same_node=node[src] == node[dst])

    def ptp_overhead(self, src: int, dst: int) -> float:
        """Sender-side cost of injecting one message (the alpha term)."""
        node = self.placement.node_of_rank
        net = self.cluster.network
        return net.alpha_intra if node[src] == node[dst] else net.alpha_inter

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

    # -- the ready set -----------------------------------------------------
    #
    # Only blocked ranks are added: a running rank re-checks its wait
    # before it blocks, and one that has exited must never run again.

    def ready_rank_locked(self, rank: int) -> None:
        """Make one rank ready if it is blocked."""
        self.wakeup_stats["targeted"] += 1
        if rank in self.blocked:
            self.ready[rank] = None

    def ready_ranks_locked(self, ranks: Sequence[int]) -> None:
        """Make the blocked ranks of a set (e.g. a communicator group) ready."""
        self.wakeup_stats["targeted"] += len(ranks)
        blocked = self.blocked
        for rank in ranks:
            if rank in blocked:
                self.ready[rank] = None

    def ready_blocked_locked(self) -> None:
        """World-scoped events only (abort, crash, rank exit, revoke,
        deadlock), where any rank's wait may have changed: every blocked
        rank becomes ready, in rank order."""
        self.wakeup_stats["broadcast"] += 1
        for rank in sorted(self.blocked):
            self.ready[rank] = None

    # -- blocking / scheduling ---------------------------------------------

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
        description: str,
        failure: Optional[Callable[[], Optional[BaseException]]] = None,
        deadline: Optional[float] = None,
        cid: Optional[int] = None,
    ) -> Any:
        """Block ``rank`` until ``take()`` returns non-None.

        ``take`` returns the wait's result once it is available, and
        keeps returning it: the stall pass calls it too, to find waiters
        an event forgot to ready.  Caller must hold the world lock and be
        the running rank; the rank gives up the baton while its wait
        cannot resolve and re-checks each time it gets it back.

        ``failure`` (optional) is probed *after* ``take`` — so an
        already-available result still wins — and any exception it
        returns is raised in the blocked rank (the crashed-peer path).
        ``deadline`` (optional, virtual seconds) registers a timeout: if
        the world stalls and this waiter holds the earliest deadline, the
        block raises :class:`~repro.errors.SmpiTimeoutError` instead of
        the world declaring deadlock.
        ``cid`` (optional) ties the block to a communicator: if that
        communicator is revoked, the block raises
        :class:`~repro.errors.SmpiRevokedError`.  The check runs *after*
        ``take`` and ``failure``, so an operation whose completion (or
        whose peer's crash) was already established in virtual time
        resolves that way — revocation only poisons waits that cannot
        otherwise resolve.
        """
        info = _BlockInfo(description, take, deadline, failure, cid)
        while True:
            if self.abort_exc is not None:
                self.check_abort_locked()
            result = take()
            if result is not None:
                return result
            if failure is not None:
                exc = failure()
                if exc is not None:
                    try:
                        raise exc
                    finally:
                        # The traceback holds this frame: a local left
                        # pointing back at ``exc`` is a reference cycle.
                        del exc
                # An ERRORS_ARE_FATAL probe aborts the world in place.
                if self.abort_exc is not None:
                    self.check_abort_locked()
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
                self._switch_locked(rank)
            finally:
                self.blocked.pop(rank, None)

    def yield_locked(self, rank: int) -> None:
        """A failed poll (``iprobe``, ``Request.test``): ``rank`` goes to
        the back of the ready set, so every other ready rank runs before
        it polls again.  Caller holds the world lock."""
        self.ready[rank] = None
        self._switch_locked(rank)

    def _switch_locked(self, rank: int) -> None:
        """Hand the baton from ``rank`` to the next ready rank and wait
        until ``rank`` is chosen again (at once if it is next itself)."""
        nxt = self._next_locked()
        if nxt == rank:
            return
        self.lock.release()
        self._batons[nxt].release()
        self._batons[rank].acquire()
        self.lock.acquire()

    def pass_baton(self) -> None:
        """Hand the baton to the next ready rank; the caller stops running
        (:func:`launch` starting the world, or a rank exiting)."""
        with self.lock:
            nxt = self._next_locked() if self.live else None
        if nxt is not None:
            self._batons[nxt].release()

    def _next_locked(self) -> int:
        """Pop the next rank to run, running the stall pass while none is
        ready."""
        while not self.ready:
            self._stall_locked()
        rank = next(iter(self.ready))
        del self.ready[rank]
        return rank

    def _resolvable_locked(self, info: _BlockInfo) -> bool:
        """Would the blocked rank's wait loop return or raise right now?"""
        return (
            info.timed_out
            or self.abort_exc is not None
            or info.take() is not None
            or (info.cid is not None and info.cid in self.revoked_cids)
            or (info.failure is not None and info.failure() is not None)
        )

    def _stall_locked(self) -> None:
        """No rank is ready, so every live rank is blocked: make one move
        that readies a rank.  In order: ready the blocked ranks whose wait
        is already resolvable (missed marks, counted in ``missed``),
        resolve one sanitizer hold, time out the earliest deadline, or
        declare deadlock."""
        missed = [
            rank for rank, info in self.blocked.items()
            if self._resolvable_locked(info)
        ]
        if missed:
            self.wakeup_stats["missed"] += len(missed)
            for rank in sorted(missed):
                self.ready[rank] = None
            return
        # Sanitized wildcard receives are *held* — they never match
        # eagerly — and are resolved only here, where the queues hold the
        # maximal progress closure of the program, so the candidate set —
        # and with it the whole sanitized execution — is deterministic.
        if self.wildcard_holds and self._resolve_wildcard_holds_locked():
            return
        # Waiters with a deadline time out in deadline order, one at a
        # time: timing out may unstall the rest.
        pending = [
            (info.deadline, rank)
            for rank, info in self.blocked.items()
            if info.deadline is not None
        ]
        if pending:
            _, rank = min(pending)
            self.blocked[rank].timed_out = True
            self.ready_rank_locked(rank)
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
        self.abort_locked(
            DeadlockError(
                "deadlock detected — every live rank is blocked and no message "
                "can ever arrive:\n" + "\n".join(lines)
            ),
            "deadlock",
        )

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
            # predicate is unchanged).
            self.ready_rank_locked(pr.dest)
            return True
        return False

    def abort(self, exc: BaseException, origin: str) -> None:
        """Abort the world (first error wins); readies every blocked rank."""
        with self.lock:
            self.abort_locked(exc, origin)

    def abort_locked(self, exc: BaseException, origin: str) -> None:
        """Abort with the world lock already held.

        The single funnel for every abort path: every blocked rank is
        made ready, so each observes the abort at its next turn.
        """
        if self.abort_exc is None:
            self.abort_exc = exc
            self.abort_origin = origin
        self.ready_blocked_locked()

    def crash_rank(self, rank: int, reason: str) -> None:
        """Kill one rank (fault injection): it leaves the live set, its
        crash is recorded as a ``fault_crash`` trace event, and every
        blocked rank is made ready so crashed-peer probes and ft
        rendezvous readiness are re-checked."""
        with self.lock:
            if rank in self.crashed:
                return
            self.crashed.add(rank)
            self.live.discard(rank)
            now = self.clocks[rank].now
            self.tracer.record(rank, "fault", "fault_crash", 0, now, now)
            self.metrics.counter("smpi.faults.injected", kind="crash").inc()
            self.ready_blocked_locked()

    def finish_rank(self, rank: int) -> None:
        """Mark a rank's main function as returned and pass the baton on.

        Rank exit is world-scoped (shrink/agree readiness depends on the
        live set), so every blocked rank is made ready.
        """
        with self.lock:
            self.live.discard(rank)
            self.ready_blocked_locked()
        self.pass_baton()

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
            self.ready_blocked_locked()
            return True

    def ft_table(self, cid: int) -> CallTable:
        """Per-communicator shrink/agree table (caller holds the lock)."""
        table = self._ft_tables.get(cid)
        if table is None:
            group = self._comm_groups[cid]
            table = CallTable(
                len(group), functools.partial(FtContext, group=group),
                "fault-tolerant call",
            )
            self._ft_tables[cid] = table
        return table

    def ft_poll_locked(self, ctx: FtContext) -> Optional[bool]:
        """``take`` probe for a rank blocked in shrink/agree.

        The first call that observes the rendezvous ready (a waiter's,
        or the stall pass's for a waiter an event forgot) finalizes it
        for everyone (survivor list, result/new cid, completion time).
        """
        if not ctx.done and ctx.ready(self.live):
            alpha = self.net_params(
                [ctx.group[r] for r in sorted(ctx.contribs)]
            ).alpha
            ctx.finalize(alpha, self._register_group_locked)
            # Only the rendezvous participants can have been unblocked.
            self.ready_ranks_locked(ctx.group)
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
        # satisfiable.
        self.ready_rank_locked(env.dest)
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
        world._batons[rank].acquire()
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
    world.pass_baton()
    for t in threads:
        t.join()
    world.publish_runtime_counters()
    if world.sanitizer is not None:
        world.sanitizer.on_world_finish(world, results, world.abort_exc)
        # The sanitizer keeps the world for its analysis; dropping the
        # link back leaves no cycle, so the world dies by refcount.
        world.sanitizer = None
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
