"""The communicator: mpi4py-style point-to-point and collective API.

Lowercase methods (``send``/``recv``/``bcast``/...) move arbitrary Python
objects, uppercase methods (``Send``/``Recv``/``Bcast``/...) fill numpy
buffers in place — the same convention mpi4py uses, so module solutions
written here transliterate directly to real MPI code.

Beyond MPI, :meth:`Comm.compute` charges virtual time for a compute
phase through the roofline model; this is how the pedagogic modules make
compute-bound vs memory-bound behaviour visible without real hardware.
"""

from __future__ import annotations

from typing import Any, Callable, NoReturn, Optional, Sequence

import numpy as np

from repro.errors import (
    CommAbortError,
    InvalidRankError,
    InvalidTagError,
    SMPIError,
    SmpiProcFailedError,
    SmpiRevokedError,
    SmpiTimeoutError,
    TruncationError,
)
from repro.smpi import datatypes as dt
from repro.smpi.collectives import KINDS, copy_payload
from repro.smpi.datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    ERRORS_ARE_FATAL,
    ERRORS_RETURN,
    Op,
    Status,
    TAG_UB,
    payload_nbytes,
)
from repro.smpi.message import Envelope, PostedRecv
from repro.smpi.request import Request
from repro.smpi.runtime import World


class Comm:
    """A communicator over a group of simulated ranks.

    Construct via :func:`repro.smpi.run` /
    :func:`repro.smpi.launch` (world communicator) or
    :meth:`Comm.split` / :meth:`Comm.dup`.
    """

    def __init__(self, world: World, cid: int, rank: int):
        self.world = world
        self.cid = cid
        self.group = world.group_of(cid)
        self._rank = rank
        self._world_rank = self.group[rank]
        self._inverse = {wr: r for r, wr in enumerate(self.group)}
        self._clock = world.clocks[self._world_rank]
        self._split_count = 0
        self._errhandler = ERRORS_ARE_FATAL
        self._acked: frozenset[int] = frozenset()  # acknowledged failed world ranks
        self._freed = False
        self._tally = world.tallies[self._world_rank]

    # -- identity ----------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.group)

    @property
    def world_rank(self) -> int:
        """This process's rank in the world communicator.

        Stable across :meth:`shrink` and :meth:`split` — which is what a
        checkpoint store keys on, so a rank can find its own state again
        after recovery renumbers the communicator.
        """
        return self._world_rank

    @property
    def is_revoked(self) -> bool:
        """True once :meth:`revoke` has been called on this communicator
        (by any member rank)."""
        return self.cid in self.world.revoked_cids

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self.size

    def wtime(self) -> float:
        """Virtual time on this rank (``MPI_Wtime``)."""
        return self._clock.now

    def Get_processor_name(self) -> str:
        """The simulated node hosting this rank (``MPI_Get_processor_name``)."""
        return f"node{self.world.placement.node(self._world_rank):03d}"

    def abort(self, errorcode: int = 1) -> None:
        """Abort the whole world (``MPI_Abort``): every rank's pending
        and future communication raises
        :class:`~repro.errors.CommAbortError`."""
        exc = CommAbortError(
            f"MPI_Abort(errorcode={errorcode}) called by rank {self._rank}"
        )
        self.world.abort(exc, f"rank {self._rank} called abort")
        raise exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comm(cid={self.cid}, rank={self._rank}/{self.size})"

    # -- validation ----------------------------------------------------------

    def _check_peer(self, name: str, peer: int) -> int:
        if not 0 <= peer < self.size:
            raise InvalidRankError(
                f"{name}={peer} out of range for communicator of size {self.size}"
            )
        return self.group[peer]

    def _check_source(self, source: int) -> int:
        if source == ANY_SOURCE:
            return ANY_SOURCE
        return self._check_peer("source", source)

    @staticmethod
    def _check_send_tag(tag: int) -> int:
        if not 0 <= tag <= TAG_UB:
            raise InvalidTagError(f"send tag must be in [0, {TAG_UB}], got {tag}")
        return tag

    @staticmethod
    def _check_recv_tag(tag: int) -> int:
        if tag != ANY_TAG and not 0 <= tag <= TAG_UB:
            raise InvalidTagError(f"recv tag must be ANY_TAG or in [0, {TAG_UB}], got {tag}")
        return tag

    # -- error handlers & fault hooks -----------------------------------------

    def set_errhandler(self, errhandler: str) -> None:
        """Choose what happens when an operation observes a crashed peer.

        ``ERRORS_ARE_FATAL`` (the default): abort the whole world, as a
        real MPI job dies.  ``ERRORS_RETURN``: raise
        :class:`~repro.errors.RankCrashedError` into this rank's code so
        fault-tolerant solutions can catch it and degrade (Module 8).
        Per-communicator, as in ``MPI_Comm_set_errhandler``.
        """
        if errhandler not in (ERRORS_ARE_FATAL, ERRORS_RETURN):
            raise SMPIError(
                f"unknown errhandler {errhandler!r}; "
                f"use ERRORS_ARE_FATAL or ERRORS_RETURN"
            )
        self._errhandler = errhandler

    def get_errhandler(self) -> str:
        """The active error handler (``MPI_Comm_get_errhandler``)."""
        return self._errhandler

    # mpi4py-style aliases
    Set_errhandler = set_errhandler
    Get_errhandler = get_errhandler

    def _sanitize_request(self, req: Request, buf: Any) -> None:
        """Register a freshly created nonblocking request with the
        sanitizer (leak tracking; ndarray send buffers are digested so
        mutation before completion is detectable)."""
        san = self.world.sanitizer
        if san is not None:
            san.on_request(
                req,
                rank=self._world_rank,
                buf=buf if isinstance(buf, np.ndarray) else None,
            )

    def _maybe_crash(self) -> None:
        """Fault-injection hook at the top of every MPI call: let the
        injector crash *this* rank if its scheduled time has come."""
        inj = self.world.faults
        if inj is not None:
            inj.maybe_crash(self.world, self._world_rank, self._clock.now)

    def _check_revoked(self, what: str) -> None:
        """Raise :class:`~repro.errors.SmpiRevokedError` if this
        communicator has been revoked (ULFM: only ``shrink``/``agree``/
        failure-ack remain usable).  ``revoked_cids`` only ever grows, so
        the unlocked emptiness check is a safe zero-cost fast path."""
        if self.world.revoked_cids and self.cid in self.world.revoked_cids:
            raise SmpiRevokedError(
                f"{what}: communicator {self.cid} has been revoked"
            )

    def _peer_error(self, exc: SMPIError, origin: str) -> NoReturn:
        """Dispatch a crashed-peer error through this communicator's
        error handler.  Caller must NOT hold the world lock."""
        if self._errhandler == ERRORS_RETURN:
            raise exc
        self.world.abort(exc, origin)
        raise CommAbortError(f"world aborted ({origin}): {exc!r}") from exc

    def _crashed_peer_failure(
        self, world_peer: int, what: str
    ) -> Optional[Callable[[], Optional[BaseException]]]:
        """Failure probe for :meth:`World.block`: fires once the named
        peer has crashed, because the wait can then never be satisfied.

        Under ``ERRORS_RETURN`` the probe returns the exception for the
        blocked rank to raise; under ``ERRORS_ARE_FATAL`` it aborts the
        world in place (the probe runs with the lock held) and returns
        ``None`` so the next loop iteration raises ``CommAbortError``.
        ``ANY_SOURCE`` waits never fail this way — another rank may still
        send; lost-message hangs are covered by ``timeout=`` deadlines
        and the deadlock detector.
        """
        if self.world.faults is None or world_peer < 0:
            return None

        def failure() -> Optional[BaseException]:
            if world_peer not in self.world.crashed:
                return None
            exc = SmpiProcFailedError(
                f"{what}: rank {self._inverse.get(world_peer, world_peer)} "
                f"(world rank {world_peer}) crashed"
            )
            if self._errhandler == ERRORS_RETURN:
                return exc
            self.world.abort_locked(exc, f"rank {self._rank} observed a crashed peer")
            return None

        return failure

    def _collective_crash_failure(
        self, ctx: Any, primitive: str
    ) -> Optional[Callable[[], Optional[BaseException]]]:
        """Failure probe for collectives: fires when a member rank has
        crashed *without* having contributed — the collective can then
        never complete.  A member that joined before crashing still
        counts, so the operation finishes with its contribution."""
        if self.world.faults is None:
            return None

        def failure() -> Optional[BaseException]:
            missing = [
                self._inverse[wr]
                for wr in self.group
                if wr in self.world.crashed and self._inverse[wr] not in ctx.contribs
            ]
            if not missing:
                return None
            exc = SmpiProcFailedError(
                f"{primitive}: rank(s) {missing} crashed before entering "
                f"the collective"
            )
            if self._errhandler == ERRORS_RETURN:
                return exc
            self.world.abort_locked(
                exc, f"rank {self._rank} observed a crashed peer in {primitive}"
            )
            return None

        return failure

    def _abandon_timeout(self, t_post: float, deadline: float, what: str) -> NoReturn:
        """Abandon a timed-out blocking wait: charge virtual time up to
        the deadline, emit a ``fault_timeout`` trace event spanning the
        whole wait (so wait-state analysis attributes the lost time to
        the fault, not to a late sender), and raise."""
        me = self._world_rank
        if self._clock.now < deadline:
            self._clock.advance_to(deadline)
        self.world.tracer.record(
            me, "fault", "fault_timeout", 0, t_post, deadline, cid=self.cid
        )
        self.world.metrics.counter("smpi.faults.timeouts", rank=me).inc()
        raise SmpiTimeoutError(
            f"{what} timed out after {deadline - t_post:.6g} virtual s"
        )

    # -- point-to-point: sends ------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send (eager below the threshold,
        rendezvous above — so large blocking sends can deadlock, as on a
        real cluster)."""
        self._send_impl(obj, dest, tag, mode="send", primitive="MPI_Send")

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous-mode send: always waits for the matching receive."""
        self._send_impl(obj, dest, tag, mode="ssend", primitive="MPI_Ssend")

    def bsend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered-mode send: always completes locally (eager)."""
        self._send_impl(obj, dest, tag, mode="bsend", primitive="MPI_Bsend")

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; complete with :meth:`Request.wait`."""
        return self._send_impl(obj, dest, tag, mode="isend", primitive="MPI_Isend")

    def _send_impl(
        self, obj: Any, dest: int, tag: int, *, mode: str, primitive: str
    ) -> Optional[Request]:
        world_dst = self._check_peer("dest", dest)
        tag = self._check_send_tag(tag)
        self._maybe_crash()
        self._check_revoked(primitive)
        src = self._world_rank
        nbytes = payload_nbytes(obj)
        payload = copy_payload(obj)
        ts = self._clock.now
        net_time = self.world.ptp_net_time(src, world_dst, nbytes)
        decision = None
        inj = self.world.faults
        if inj is not None:
            if world_dst in self.world.crashed:
                self._peer_error(
                    SmpiProcFailedError(
                        f"{primitive}(dest={dest}): destination rank crashed"
                    ),
                    f"rank {self._rank} sent to a crashed rank",
                )
            decision = inj.on_send(self.world, src, world_dst, tag, nbytes, ts)
            if decision is not None:
                # Straggler link and/or one-off delay: stretch the wire time.
                net_time = net_time * decision.net_factor + decision.extra_delay
        if mode == "ssend":
            rendezvous = True
        elif mode == "bsend":
            rendezvous = False
        else:
            rendezvous = self.world.is_rendezvous(nbytes)
        env = Envelope(
            source=src,
            dest=world_dst,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            send_time=ts,
            net_time=net_time,
            rendezvous=rendezvous,
            arrival_time=None if rendezvous else ts + net_time,
            comm_cid=self.cid,
        )
        dropped = False
        duplicates: list[Envelope] = []
        if decision is not None:
            # Records the fault trace events (keyed to env.seq) and builds
            # any duplicate envelopes; a dropped message is never delivered
            # but the sender proceeds normally — exactly a lost packet.
            dropped, duplicates = inj.finalize_send(decision, env)
        tally = self._tally[(world_dst, primitive)]
        tally[0] += 1
        tally[1] += nbytes
        blocking_rendezvous = rendezvous and mode != "isend"
        with self.world.lock:
            self.world.check_abort_locked()
            if not dropped:
                self.world.deliver_locked(env)
            for dup in duplicates:
                self.world.deliver_locked(dup)
            if blocking_rendezvous:
                self.world.block(
                    src,
                    take=lambda: env.completion_time,
                    can_proceed=lambda: env.completion_time is not None,
                    description=(
                        f"{primitive}(dest={dest}, tag={tag}, {nbytes} B, rendezvous) "
                        f"waiting for a matching recv"
                    ),
                    failure=self._crashed_peer_failure(
                        world_dst, f"{primitive}(dest={dest})"
                    ),
                    cid=self.cid,
                )
        if blocking_rendezvous:
            self._clock.advance_to(env.completion_time)
        elif not rendezvous:
            self._clock.advance(self.world.ptp_overhead(src, world_dst))
        # A rendezvous isend is only posted here: it ends where it began.
        self.world.tracer.record(
            src, "p2p", primitive, nbytes, ts, self._clock.now,
            peer=world_dst, cid=self.cid, msg_id=env.seq,
        )
        if mode != "isend":
            return None
        req = Request(self, "isend")
        if rendezvous:
            req._env = env  # type: ignore[attr-defined]
        else:
            # The request is already satisfied, but completion is
            # observed (and traced as MPI_Wait) at wait/test time so
            # the student's call pattern shows up in the trace.
            req._eager_status = Status(  # type: ignore[attr-defined]
                source=self._rank, tag=tag, nbytes=nbytes
            )
        self._sanitize_request(req, obj)
        return req

    # -- point-to-point: receives ----------------------------------------------

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Blocking receive; returns the received object.

        ``timeout`` (virtual seconds) bounds the wait: when it expires
        the call raises :class:`~repro.errors.SmpiTimeoutError` instead
        of riding a lost message into deadlock detection.  Real MPI has
        no receive timeout — the simulator adds one for the Module 8
        fault drills.  A message that matches but would only finish
        arriving after the deadline is left in the queue for a retry.
        """
        world_src = self._check_source(source)
        tag = self._check_recv_tag(tag)
        self._maybe_crash()
        self._check_revoked("MPI_Recv")
        me = self._world_rank
        t_post = self._clock.now
        deadline = None if timeout is None else t_post + timeout
        what = (
            f"MPI_Recv(source={source if source != ANY_SOURCE else 'ANY_SOURCE'}, "
            f"tag={tag if tag != ANY_TAG else 'ANY_TAG'})"
        )
        san = self.world.sanitizer
        hold = san is not None and (world_src == ANY_SOURCE or tag == ANY_TAG)
        with self.world.lock:
            self.world.check_abort_locked()
            queues = self.world.queues[me]
            # Under an active sanitizer a wildcard receive never matches
            # eagerly: it is *held* and resolved by the deadlock checker
            # at the next global stall, where the candidate set — and
            # therefore the whole execution — is schedule-independent.
            env = None if hold else queues.take_unexpected(world_src, tag, self.cid)
            if env is None:
                pr = PostedRecv(
                    dest=me, source=world_src, tag=tag, comm_cid=self.cid,
                    post_time=t_post, hold=hold,
                )
                queues.post(pr)
                if hold:
                    self.world.wildcard_holds[me] = pr
                try:
                    env = self.world.block(
                        me,
                        take=lambda: pr.envelope,
                        can_proceed=lambda: pr.envelope is not None,
                        description=f"{what} waiting for a message",
                        failure=self._crashed_peer_failure(world_src, what),
                        deadline=deadline,
                        cid=self.cid,
                    )
                except SmpiTimeoutError:
                    queues.cancel(pr)
                    self._abandon_timeout(t_post, deadline, what)
                except SmpiRevokedError:
                    # Leave no dangling posted receive on the dead comm.
                    queues.cancel(pr)
                    raise
                finally:
                    if hold:
                        self.world.wildcard_holds.pop(me, None)
            completion = self._complete_match_locked(env)
            if deadline is not None and completion > deadline:
                # Matched, but the payload lands after the deadline: put
                # the envelope back (front of the queue, so ordering and
                # a later retry both work) and report the timeout.
                queues.requeue(env)
                self._abandon_timeout(t_post, deadline, what)
        self._clock.advance_to(completion)
        self.world.tracer.record(
            me, "p2p", "MPI_Recv", env.nbytes, t_post, self._clock.now,
            peer=env.source, cid=self.cid, msg_id=env.seq,
        )
        self._tally[(env.source, None)][1] += env.nbytes
        self._fill_status(status, env)
        return env.payload

    def _complete_match_locked(self, env: Envelope) -> float:
        """Finish the protocol for a matched envelope; returns completion time.

        Caller holds the world lock.
        """
        now = self._clock.now
        if env.rendezvous:
            if env.completion_time is None:
                env.completion_time = max(env.send_time, now) + env.net_time
                env.arrival_time = env.completion_time
                # Only the rendezvous sender waits on this handshake.
                self.world.notify_rank_locked(env.source)
            return max(now, env.completion_time)
        return max(now, env.arrival_time if env.arrival_time is not None else now)

    def _fill_status(self, status: Optional[Status], env: Envelope) -> None:
        if status is None:
            return
        status.source = self._inverse.get(env.source, env.source)
        status.tag = env.tag
        status.nbytes = env.nbytes

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Non-blocking receive; :meth:`Request.wait` returns the object."""
        world_src = self._check_source(source)
        tag = self._check_recv_tag(tag)
        self._maybe_crash()
        self._check_revoked("MPI_Irecv")
        me = self._world_rank
        req = Request(self, "irecv")
        req._post_time = self._clock.now  # type: ignore[attr-defined]
        with self.world.lock:
            self.world.check_abort_locked()
            queues = self.world.queues[me]
            env = queues.take_unexpected(world_src, tag, self.cid)
            if env is not None:
                # The rendezvous handshake completes now that both sides
                # are posted — not at wait time — so a compute phase
                # between irecv and wait genuinely overlaps the transfer.
                if env.rendezvous and env.completion_time is None:
                    env.completion_time = (
                        max(env.send_time, self._clock.now) + env.net_time
                    )
                    env.arrival_time = env.completion_time
                    self.world.notify_rank_locked(env.source)
                req._env = env  # type: ignore[attr-defined]
            else:
                pr = PostedRecv(
                    dest=me, source=world_src, tag=tag, comm_cid=self.cid,
                    post_time=self._clock.now,
                )
                queues.post(pr)
                req._pr = pr  # type: ignore[attr-defined]
        self.world.tracer.record(
            me, "p2p", "MPI_Irecv", 0,
            req._post_time, req._post_time, cid=self.cid,  # type: ignore[attr-defined]
        )
        self._sanitize_request(req, None)
        return req

    # -- request completion (called by Request) ---------------------------------

    def _wait_request(self, req: Request, timeout: Optional[float] = None) -> None:
        self._maybe_crash()
        self._check_revoked("MPI_Wait")
        me = self._world_rank
        t_wait = self._clock.now
        deadline = None if timeout is None else t_wait + timeout
        if req.kind == "isend":
            env = getattr(req, "_env", None)
            if env is None:  # eager isend: completes instantly at the wait
                status = getattr(req, "_eager_status", None) or Status()
                self.world.tracer.record(
                    me, "p2p", "MPI_Wait", status.nbytes, t_wait, t_wait, cid=self.cid
                )
                req._finish(None, status)
                return
            with self.world.lock:
                try:
                    self.world.block(
                        me,
                        take=lambda: env.completion_time,
                        can_proceed=lambda: env.completion_time is not None,
                        description=(
                            f"MPI_Wait(isend tag={env.tag}, {env.nbytes} B, rendezvous) "
                            f"waiting for a matching recv"
                        ),
                        failure=self._crashed_peer_failure(
                            env.dest, f"MPI_Wait(isend tag={env.tag})"
                        ),
                        deadline=deadline,
                        cid=env.comm_cid,
                    )
                except SmpiTimeoutError:
                    # The request stays pending; a later wait may complete it.
                    self._abandon_timeout(t_wait, deadline, "MPI_Wait(isend)")
            if deadline is not None and env.completion_time > deadline:
                self._abandon_timeout(t_wait, deadline, "MPI_Wait(isend)")
            self._clock.advance_to(env.completion_time)
            self.world.tracer.record(
                me, "p2p", "MPI_Wait", env.nbytes, t_wait, self._clock.now,
                peer=env.dest, cid=env.comm_cid, msg_id=env.seq,
            )
            req._finish(None, Status(tag=env.tag, nbytes=env.nbytes))
            return
        # irecv
        env = getattr(req, "_env", None)
        if env is None:
            pr = req._pr  # type: ignore[attr-defined]
            with self.world.lock:
                self.world.check_abort_locked()
                try:
                    env = self.world.block(
                        me,
                        take=lambda: pr.envelope,
                        can_proceed=lambda: pr.envelope is not None,
                        description="MPI_Wait(irecv) waiting for a message",
                        failure=self._crashed_peer_failure(
                            pr.source, "MPI_Wait(irecv)"
                        ),
                        deadline=deadline,
                        cid=pr.comm_cid,
                    )
                except SmpiTimeoutError:
                    # The posted receive stays live; retry with wait() later.
                    self._abandon_timeout(t_wait, deadline, "MPI_Wait(irecv)")
        with self.world.lock:
            completion = self._complete_match_locked(env)
            if deadline is not None and completion > deadline:
                # Matched, but the payload lands after the deadline: keep
                # the match on the request and let a later wait finish it.
                req._env = env  # type: ignore[attr-defined]
                self._abandon_timeout(t_wait, deadline, "MPI_Wait(irecv)")
        self._clock.advance_to(completion)
        self.world.tracer.record(
            me, "p2p", "MPI_Wait", env.nbytes, t_wait, self._clock.now,
            peer=env.source, cid=env.comm_cid, msg_id=env.seq,
        )
        self._tally[(env.source, None)][1] += env.nbytes
        status = Status()
        self._fill_status(status, env)
        payload = env.payload
        buf = getattr(req, "_recv_buffer", None)
        if buf is not None:
            _copy_into_buffer(payload, buf)
            payload = buf
        req._finish(payload, status)

    def _test_request(self, req: Request) -> None:
        if req.kind == "isend":
            env = getattr(req, "_env", None)
            if env is None:  # eager: completes on first test
                self._wait_request(req)
                return
            with self.world.lock:
                ready = env.completion_time is not None
            if ready:
                self._wait_request(req)
            return
        env = getattr(req, "_env", None)
        if env is None:
            pr = req._pr  # type: ignore[attr-defined]
            with self.world.lock:
                env = pr.envelope
            if env is None:
                return
            req._env = env  # type: ignore[attr-defined]
        self._wait_request(req)

    # -- probe ---------------------------------------------------------------

    def probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Status:
        """Block until a matching message is available (not consumed)."""
        world_src = self._check_source(source)
        tag = self._check_recv_tag(tag)
        self._maybe_crash()
        self._check_revoked("MPI_Probe")
        me = self._world_rank
        t0 = self._clock.now
        what = (
            f"MPI_Probe(source="
            f"{source if source != ANY_SOURCE else 'ANY_SOURCE'}, tag="
            f"{tag if tag != ANY_TAG else 'ANY_TAG'})"
        )
        with self.world.lock:
            self.world.check_abort_locked()
            queues = self.world.queues[me]
            env = self.world.block(
                me,
                take=lambda: queues.peek_unexpected(world_src, tag, self.cid),
                can_proceed=lambda: queues.peek_unexpected(world_src, tag, self.cid)
                is not None,
                description=f"{what} waiting for a message",
                failure=self._crashed_peer_failure(world_src, what),
                cid=self.cid,
            )
        if not env.rendezvous and env.arrival_time is not None:
            self._clock.advance_to(env.arrival_time)
        self.world.tracer.record(
            me, "p2p", "MPI_Probe", env.nbytes, t0, self._clock.now, cid=self.cid
        )
        out = status if status is not None else Status()
        self._fill_status(out, env)
        return out

    def iprobe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> bool:
        """Non-blocking probe; True when a matching message is queued."""
        world_src = self._check_source(source)
        tag = self._check_recv_tag(tag)
        self._check_revoked("MPI_Iprobe")
        me = self._world_rank
        with self.world.lock:
            self.world.check_abort_locked()
            env = self.world.queues[me].peek_unexpected(world_src, tag, self.cid)
        self.world.tracer.record(
            me, "p2p", "MPI_Iprobe", 0, self._clock.now, self._clock.now
        )
        if env is None:
            return False
        if status is not None:
            self._fill_status(status, env)
        return True

    def get_count(self, status: Status, itemsize: int = 1) -> int:
        """``MPI_Get_count``: elements in the message ``status`` describes.

        Functionally identical to :meth:`Status.Get_count`, but going
        through the communicator records the primitive in the trace —
        which is how the Table II verification sees Module 3 use it.
        """
        count = status.Get_count(itemsize)
        self.world.tracer.record(
            self._world_rank, "p2p", "MPI_Get_count", status.nbytes,
            self._clock.now, self._clock.now,
        )
        return count

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Combined send+receive that cannot deadlock against itself."""
        req = self.isend(sendobj, dest, sendtag)
        obj = self.recv(source, recvtag, status)
        req.wait()
        return obj

    # -- collectives -----------------------------------------------------------

    def _collective(
        self, kind: str, contribution: Any, root: int = 0, op: Optional[Op] = None
    ) -> Any:
        spec = KINDS[kind]
        if spec.needs_op and op is None:
            raise SMPIError(f"{kind} requires a reduction op")
        if not 0 <= root < self.size:
            raise InvalidRankError(f"root={root} out of range for size {self.size}")
        self._maybe_crash()
        self._check_revoked(spec.primitive)
        me = self._world_rank
        t0 = self._clock.now
        san = self.world.sanitizer
        if san is not None:
            # Log the call *before* matching so a mismatch diagnostic can
            # reconstruct what every rank — including the raiser — asked for.
            san.on_collective(
                self.cid, me, self._rank, kind, root,
                len(contribution)
                if isinstance(contribution, (list, tuple))
                else None,
            )
        with self.world.lock:
            self.world.check_abort_locked()
            table = self.world.coll_table(self.cid)
            net = self.world.net_params(self.group)
            try:
                index, ctx = table.context_for(self._rank, kind)
                ctx.join(self._rank, contribution, t0, root, op, net)
            except SMPIError as exc:
                # Route through the abort funnel: it sets exc + origin
                # (first error wins) *then* broadcasts, so a concurrently
                # woken rank never sees a half-recorded abort.
                self.world.abort_locked(exc, f"rank {self._rank}")
                raise
            if ctx.done:
                # Last rank in: the collective finished for the whole
                # group — wake exactly its members.
                self.world.notify_ranks_locked(self.group)
            self.world.block(
                me,
                take=lambda: True if ctx.done else None,
                can_proceed=lambda: ctx.done,
                description=f"{spec.primitive} (collective call #{index}) "
                f"waiting for all ranks to enter",
                failure=self._collective_crash_failure(ctx, spec.primitive),
                cid=self.cid,
            )
            result = ctx.results[self._rank]
            completion = ctx.completions[self._rank]
            table.maybe_release(index)
        self._clock.advance_to(completion)
        # peer carries the root's *world* rank so overlapping collectives on
        # different communicators (or roots) stay distinguishable downstream.
        self.world.tracer.record(
            me, "collective", spec.primitive, payload_nbytes(contribution), t0,
            self._clock.now, peer=self.group[root], cid=self.cid,
        )
        return result

    def barrier(self) -> None:
        """Synchronize every rank (``MPI_Barrier``)."""
        self._collective("barrier", None)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; all ranks return it."""
        return self._collective("bcast", obj, root=root)

    def scatter(self, sendobj: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Scatter a length-``size`` sequence from ``root``; each rank
        returns its piece."""
        return self._collective("scatter", sendobj, root=root)

    def gather(self, sendobj: Any, root: int = 0) -> Optional[list[Any]]:
        """Gather contributions; ``root`` returns the rank-ordered list."""
        return self._collective("gather", sendobj, root=root)

    def allgather(self, sendobj: Any) -> list[Any]:
        """Gather contributions to every rank."""
        return self._collective("allgather", sendobj)

    def alltoall(self, sendobjs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: rank ``i`` sends ``sendobjs[j]`` to
        ``j`` and returns the list of items addressed to it.  Item sizes
        may differ per destination, which also covers ``MPI_Alltoallv``."""
        return self._collective("alltoall", sendobjs)

    def reduce(self, sendobj: Any, op: Op = dt.SUM, root: int = 0) -> Any:
        """Reduce to ``root`` (others return ``None``)."""
        return self._collective("reduce", sendobj, root=root, op=op)

    def allreduce(self, sendobj: Any, op: Op = dt.SUM) -> Any:
        """Reduce and broadcast the result to every rank."""
        return self._collective("allreduce", sendobj, op=op)

    def reduce_scatter(self, sendobjs: Sequence[Any], op: Op = dt.SUM) -> Any:
        """Elementwise reduce a length-``size`` contribution list, then
        scatter: rank ``r`` returns the reduction of every rank's
        ``sendobjs[r]`` (``MPI_Reduce_scatter_block``)."""
        return self._collective("reduce_scatter", sendobjs, op=op)

    def scan(self, sendobj: Any, op: Op = dt.SUM) -> Any:
        """Inclusive prefix reduction in rank order."""
        return self._collective("scan", sendobj, op=op)

    def exscan(self, sendobj: Any, op: Op = dt.SUM) -> Any:
        """Exclusive prefix reduction (rank 0 returns ``None``)."""
        return self._collective("exscan", sendobj, op=op)

    # -- ULFM-style fault tolerance ----------------------------------------------

    def revoke(self) -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``).

        Local call with global effect: every pending and future operation
        on this communicator — on *every* member rank — raises
        :class:`~repro.errors.SmpiRevokedError`, and undelivered messages
        on it are purged.  This is how a rank that detects a process
        failure interrupts communication patterns (e.g. a ring of
        receives) that the failure has made unfinishable.  Idempotent.
        Only :meth:`shrink`, :meth:`agree` and the failure-ack calls
        remain usable afterwards.
        """
        self._maybe_crash()
        me = self._world_rank
        first = self.world.revoke_cid(self.cid)
        now = self._clock.now
        self.world.tracer.record(
            me, "recovery", "MPIX_Comm_revoke", 0, now, now, cid=self.cid
        )
        self.world.metrics.counter("smpi.recovery.revoke_calls", rank=me).inc()
        if first:
            self.world.metrics.counter("smpi.recovery.revoked_comms").inc()

    def shrink(self) -> "Comm":
        """Build a new communicator from the surviving ranks
        (``MPIX_Comm_shrink``).

        Works on a revoked communicator — that is its whole point.  All
        surviving members must call it; crashed members are excluded and
        the survivors are re-numbered ``0..n_survivors-1`` in their old
        rank order.  The new communicator has fresh matching queues and
        collective state and inherits this one's error handler.
        """
        self._maybe_crash()
        me = self._world_rank
        t0 = self._clock.now
        world = self.world
        with world.lock:
            world.check_abort_locked()
            ctx = world.ft_table(self.cid).context_for(self._rank, "shrink")
            ctx.join(self._rank, None, t0)
            world.block(
                me,
                take=lambda: world.ft_poll_locked(ctx),
                can_proceed=lambda: ctx.done or ctx.ready(world.live),
                description=(
                    f"MPIX_Comm_shrink(cid={self.cid}) waiting for survivors"
                ),
            )
            new_cid = ctx.new_cid
            new_rank = ctx.survivors.index(self._rank)
            completion = ctx.completion
        self._clock.advance_to(max(self._clock.now, completion))
        world.tracer.record(
            me, "recovery", "MPIX_Comm_shrink", 0, t0, self._clock.now,
            cid=self.cid,
        )
        world.metrics.counter("smpi.recovery.shrinks", rank=me).inc()
        new_comm = Comm(world, new_cid, new_rank)
        new_comm._errhandler = self._errhandler
        return new_comm

    def agree(self, flag: bool = True) -> bool:
        """Fault-tolerant consensus over surviving ranks
        (``MPIX_Comm_agree``).

        Returns the logical AND of every survivor's ``flag``.  If a
        member rank failed and this rank has not acknowledged the failure
        via :meth:`failure_ack`, the agreement still completes but raises
        :class:`~repro.errors.SmpiProcFailedError` — ULFM's way of
        guaranteeing no failure goes unnoticed across an agreement.
        Works on a revoked communicator.
        """
        self._maybe_crash()
        me = self._world_rank
        t0 = self._clock.now
        world = self.world
        with world.lock:
            world.check_abort_locked()
            ctx = world.ft_table(self.cid).context_for(self._rank, "agree")
            ctx.join(self._rank, bool(flag), t0)
            world.block(
                me,
                take=lambda: world.ft_poll_locked(ctx),
                can_proceed=lambda: ctx.done or ctx.ready(world.live),
                description=(
                    f"MPIX_Comm_agree(cid={self.cid}) waiting for survivors"
                ),
            )
            result = bool(ctx.result)
            completion = ctx.completion
            unacked = sorted(
                wr
                for wr in self.group
                if wr in world.crashed and wr not in self._acked
            )
        self._clock.advance_to(max(self._clock.now, completion))
        world.tracer.record(
            me, "recovery", "MPIX_Comm_agree", 0, t0, self._clock.now,
            cid=self.cid,
        )
        world.metrics.counter("smpi.recovery.agrees", rank=me).inc()
        if unacked:
            raise SmpiProcFailedError(
                f"MPIX_Comm_agree: unacknowledged process failure(s) at "
                f"world rank(s) {unacked}; call failure_ack() first"
            )
        return result

    def failure_ack(self) -> list[int]:
        """Acknowledge every currently-known failed member
        (``MPIX_Comm_failure_ack``); returns their communicator ranks.

        After acknowledging, :meth:`agree` stops raising for those
        failures and ``ANY_SOURCE`` semantics would treat them as
        excluded on a real ULFM MPI.
        """
        self._maybe_crash()
        me = self._world_rank
        with self.world.lock:
            self._acked = frozenset(
                wr for wr in self.group if wr in self.world.crashed
            )
        now = self._clock.now
        self.world.tracer.record(
            me, "recovery", "MPIX_Comm_failure_ack", 0, now, now, cid=self.cid
        )
        return sorted(self._inverse[wr] for wr in self._acked)

    def failure_get_acked(self) -> list[int]:
        """Communicator ranks whose failure this rank has acknowledged
        (``MPIX_Comm_failure_get_acked``)."""
        return sorted(self._inverse[wr] for wr in self._acked)

    # -- communicator management -------------------------------------------------

    def split(self, color: Optional[int], key: Optional[int] = None) -> Optional["Comm"]:
        """Partition the communicator by ``color``; order ranks by ``key``.

        Ranks passing ``color=None`` (``MPI_UNDEFINED``) get ``None`` back.
        """
        self._split_count += 1
        entry = (color, key if key is not None else self._rank, self._rank)
        entries = self.allgather(entry)
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in entries if c == color
        )
        group_world = tuple(self.group[r] for (_k, r) in members)
        cid = self.world.split_cid(
            (self.cid, self._split_count, color), group_world
        )
        new_rank = [r for (_k, r) in members].index(self._rank)
        new = Comm(self.world, cid, new_rank)
        san = self.world.sanitizer
        if san is not None:
            san.on_comm_created(new)
        return new

    def dup(self) -> "Comm":
        """Duplicate the communicator (independent collective sequence)."""
        new = self.split(color=0, key=self._rank)
        assert new is not None
        return new

    def free(self) -> None:
        """Release this rank's handle on the communicator (``MPI_Comm_free``).

        Purely a bookkeeping call in the simulator — contexts are garbage
        collected — but MPI requires it, and the sanitizer
        (:mod:`repro.sanitize`) reports communicators created by
        :meth:`split`/:meth:`dup` that were never freed.  Calling it
        twice on the same handle is an error, as in MPI.
        """
        if self._freed:
            raise SMPIError(
                f"MPI_Comm_free: communicator {self.cid} already freed on "
                f"rank {self._rank}"
            )
        self._freed = True
        san = self.world.sanitizer
        if san is not None:
            san.on_comm_freed(self)

    # mpi4py-style alias
    Free = free

    def create_cart(self, dims=None, periods=None, ndims: int = 1):
        """Attach a Cartesian grid topology (``MPI_Cart_create``).

        See :mod:`repro.smpi.topology`; returns a
        :class:`~repro.smpi.topology.CartComm`.
        """
        from repro.smpi.topology import create_cart

        return create_cart(self, dims=dims, periods=periods, ndims=ndims)

    def sendrecv_replace(
        self,
        obj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Exchange that reuses one "buffer": send ``obj``, return the
        received object (``MPI_Sendrecv_replace``)."""
        return self.sendrecv(obj, dest, sendtag, source, recvtag, status)

    # -- compute charging ---------------------------------------------------------

    def compute(
        self, flops: float = 0.0, nbytes: float = 0.0, seconds: float = 0.0
    ) -> float:
        """Charge a compute phase to this rank's virtual clock.

        ``flops`` and ``nbytes`` go through the roofline model with this
        rank's current share of node memory bandwidth; ``seconds`` is a
        floor for fixed overheads.  Returns the charged duration.
        """
        self._maybe_crash()
        model = self.world.compute_model(self._world_rank)
        dt_roofline = model.time(flops, nbytes) if (flops or nbytes) else 0.0
        duration = max(dt_roofline, seconds)
        t0 = self._clock.now
        self._clock.advance(duration)
        self.world.tracer.record(
            self._world_rank, "compute", "compute", int(nbytes), t0, self._clock.now
        )
        return duration

    # -- uppercase (buffer) API -----------------------------------------------------

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer send (``MPI_Send`` over a numpy array)."""
        self._send_impl(np.asarray(buf), dest, tag, mode="send", primitive="MPI_Send")

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        return self._send_impl(
            np.asarray(buf), dest, tag, mode="isend", primitive="MPI_Isend"
        )

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Buffer receive: fills ``buf`` in place; raises
        :class:`~repro.errors.TruncationError` when the message is larger
        than the buffer (``MPI_ERR_TRUNCATE``)."""
        obj = self.recv(source, tag, status, timeout=timeout)
        _copy_into_buffer(obj, buf)

    def Irecv(
        self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Non-blocking buffer receive; ``wait`` fills ``buf``."""
        req = self.irecv(source, tag)
        req._recv_buffer = buf  # type: ignore[attr-defined]
        return req

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        obj = self.bcast(np.asarray(buf) if self._rank == root else None, root=root)
        if self._rank != root:
            _copy_into_buffer(obj, buf)

    def Scatter(
        self, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray, root: int = 0
    ) -> None:
        """Scatter equal slabs of ``sendbuf``'s leading axis from ``root``."""
        pieces = None
        if self._rank == root:
            arr = np.asarray(sendbuf)
            if arr.shape[0] % self.size != 0:
                raise SMPIError(
                    f"Scatter sendbuf leading dimension {arr.shape[0]} not "
                    f"divisible by {self.size} ranks"
                )
            pieces = list(arr.reshape(self.size, -1))
        piece = self.scatter(pieces, root=root)
        _copy_into_buffer(piece, recvbuf)

    def Gather(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], root: int = 0
    ) -> None:
        parts = self.gather(np.asarray(sendbuf), root=root)
        if self._rank == root:
            if recvbuf is None:
                raise SMPIError("Gather root requires a recvbuf")
            stacked = np.concatenate([np.asarray(p).ravel() for p in parts])
            _copy_into_buffer(stacked, recvbuf)

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        parts = self.allgather(np.asarray(sendbuf))
        stacked = np.concatenate([np.asarray(p).ravel() for p in parts])
        _copy_into_buffer(stacked, recvbuf)

    def Reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        op: Op = dt.SUM,
        root: int = 0,
    ) -> None:
        result = self.reduce(np.asarray(sendbuf), op=op, root=root)
        if self._rank == root:
            if recvbuf is None:
                raise SMPIError("Reduce root requires a recvbuf")
            _copy_into_buffer(result, recvbuf)

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = dt.SUM) -> None:
        result = self.allreduce(np.asarray(sendbuf), op=op)
        _copy_into_buffer(result, recvbuf)


def _copy_into_buffer(obj: Any, buf: np.ndarray) -> None:
    """Copy a received object into a user buffer with truncation checks."""
    arr = np.asarray(obj)
    out = np.asarray(buf)
    if arr.nbytes > out.nbytes:
        raise TruncationError(
            f"message of {arr.nbytes} bytes does not fit receive buffer of "
            f"{out.nbytes} bytes"
        )
    flat_out = out.reshape(-1)
    flat_in = arr.astype(out.dtype, copy=False).reshape(-1)
    flat_out[: flat_in.size] = flat_in
