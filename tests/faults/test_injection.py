"""Behaviour of injected faults inside real simulated runs."""

import numpy as np
import pytest

from repro import smpi
from repro.faults import HARD_STOP_ERRORS, FaultPlan, retry_with_backoff
from repro.errors import (
    DeadlockError,
    RankCrashedError,
    SMPIError,
    SmpiRevokedError,
    SmpiTimeoutError,
    ValidationError,
)

RENDEZVOUS = np.zeros(100_000 // 8)  # far above the default eager threshold


def _pingpong(comm):
    if comm.rank == 0:
        comm.send(b"x" * 64, dest=1)
        return "sent"
    return comm.recv(source=0, timeout=5e-3)


class TestDrop:
    def test_eager_drop_times_out_the_receiver(self):
        plan = FaultPlan().drop(src=0, dst=1)
        out = smpi.launch(2, _pingpong, faults=plan, check=False)
        assert isinstance(out.error, SmpiTimeoutError)
        prims = {e.primitive for e in out.tracer.events if e.category == "fault"}
        assert prims == {"fault_drop", "fault_timeout"}

    def test_dropped_rendezvous_ends_in_deadlock_not_a_hang(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(RENDEZVOUS, dest=1)  # rendezvous: sender must block
            else:
                comm.recv(source=0)

        out = smpi.launch(2, fn, faults=FaultPlan().drop(), check=False)
        assert isinstance(out.error, DeadlockError)

    def test_count_caps_the_fires(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(4):
                    comm.send(i, dest=1)
                return None
            comm.set_errhandler(smpi.ERRORS_RETURN)
            got = []
            for _ in range(4):
                try:
                    got.append(comm.recv(source=0, timeout=1e-3))
                except SmpiTimeoutError:
                    got.append(None)
            return got

        plan = FaultPlan().drop(src=0, count=1)
        out = smpi.launch(2, fn, faults=plan, check=False)
        assert out.error is None
        # exactly the first message is lost; the rest arrive in order
        assert out.results[1] == [1, 2, 3, None]

    def test_after_n_skips_the_first_messages(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(i, dest=1)
                return None
            got = [comm.recv(source=0, timeout=1e-3)]
            got.append(comm.recv(source=0, timeout=1e-3))
            with pytest.raises(SmpiTimeoutError):
                comm.recv(source=0, timeout=1e-3)
            return got

        plan = FaultPlan().drop(src=0, after_n=2)
        out = smpi.launch(2, fn, faults=plan, check=False)
        assert out.error is None
        assert out.results[1] == [0, 1]


class TestDuplicate:
    def test_duplicate_delivers_extra_copies(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send([1, 2], dest=1)
                return None
            first = comm.recv(source=0)
            second = comm.recv(source=0, timeout=1e-3)  # the duplicate
            return first, second, first is second

        out = smpi.launch(2, fn, faults=FaultPlan().duplicate(copies=1))
        first, second, aliased = out.results[1]
        assert first == [1, 2] and second == [1, 2]
        assert not aliased  # re-delivered payload is a copy, not an alias
        dup_events = [
            e for e in out.tracer.events if e.primitive == "fault_duplicate"
        ]
        assert len(dup_events) == 1


class TestDelayAndSlowLink:
    def test_delay_stretches_the_makespan(self):
        base = smpi.launch(2, _pingpong)
        delayed = smpi.launch(2, _pingpong, faults=FaultPlan().delay(1e-3))
        assert delayed.elapsed == pytest.approx(base.elapsed + 1e-3)
        assert any(
            e.primitive == "fault_delay" for e in delayed.tracer.events
        )

    def test_slow_link_is_payload_size_dependent(self):
        def fn(comm, n):
            if comm.rank == 0:
                comm.send(np.zeros(n), dest=1)
                return None
            return comm.recv(source=0) is not None

        plan = FaultPlan().slow_link(per_byte=1e-6, min_bytes=1)
        small = smpi.launch(2, fn, 8, faults=plan)
        big = smpi.launch(2, fn, 64, faults=plan)
        small_extra = small.elapsed - smpi.launch(2, fn, 8).elapsed
        big_extra = big.elapsed - smpi.launch(2, fn, 64).elapsed
        # 64 doubles pay 8x the per-byte penalty of 8 doubles
        assert big_extra == pytest.approx(8 * small_extra, rel=1e-6)

    def test_min_bytes_spares_small_messages(self):
        plan = FaultPlan().slow_link(factor=100.0, min_bytes=10_000)
        out = smpi.launch(2, _pingpong, faults=plan)
        assert out.error is None
        assert not any(e.category == "fault" for e in out.tracer.events)

    def test_late_message_is_requeued_and_a_retry_gets_it(self):
        """A delayed payload that lands after the deadline stays in the
        queue; retry_with_backoff picks it up on the next attempt."""

        def fn(comm):
            if comm.rank == 0:
                comm.send("late", dest=1)
                return None
            return retry_with_backoff(
                lambda timeout: comm.recv(source=0, timeout=timeout),
                attempts=3,
                base_timeout=2e-4,
            )

        out = smpi.launch(2, fn, faults=FaultPlan().delay(5e-4))
        assert out.results[1] == "late"
        prims = [e.primitive for e in out.tracer.events if e.category == "fault"]
        assert "fault_timeout" in prims and "fault_delay" in prims


class TestCrash:
    def test_peer_crash_with_errors_return_raises(self):
        def fn(comm):
            if comm.rank == 1:
                comm.barrier()  # any MPI call past t=0 triggers the crash
                return None
            comm.set_errhandler(smpi.ERRORS_RETURN)
            with pytest.raises(RankCrashedError):
                comm.recv(source=1)
            return "handled"

        plan = FaultPlan().crash(rank=1, at_time=0.0)
        out = smpi.launch(2, fn, faults=plan)
        assert out.results[0] == "handled"
        assert out.world.crashed == {1}

    def test_peer_crash_with_errors_are_fatal_aborts(self):
        def fn(comm):
            if comm.rank == 1:
                comm.barrier()
                return None
            comm.recv(source=1)  # default handler: the world dies

        plan = FaultPlan().crash(rank=1, at_time=0.0)
        with pytest.raises(RankCrashedError):
            smpi.launch(2, fn, faults=plan)
        out = smpi.launch(2, fn, faults=plan, check=False)
        assert isinstance(out.error, RankCrashedError)

    def test_crash_on_nth_send(self):
        def fn(comm):
            if comm.rank == 1:
                for i in range(3):
                    comm.send(i, dest=0)
                return "all sent"  # unreachable: dies on send #2
            comm.set_errhandler(smpi.ERRORS_RETURN)
            got = [comm.recv(source=1)]
            with pytest.raises(RankCrashedError):
                comm.recv(source=1)
            return got

        plan = FaultPlan().crash(rank=1, on_nth_send=2)
        out = smpi.launch(2, fn, faults=plan)
        assert out.results[0] == [0]
        assert out.results[1] is None  # the crashed rank never returned
        crash = [e for e in out.tracer.events if e.primitive == "fault_crash"]
        assert len(crash) == 1 and crash[0].rank == 1

    def test_send_to_crashed_rank_raises(self):
        def fn(comm):
            if comm.rank == 1:
                comm.barrier()
                return None
            comm.set_errhandler(smpi.ERRORS_RETURN)
            # Block until the crash is observed, then send into the void.
            with pytest.raises(RankCrashedError):
                comm.recv(source=1)
            with pytest.raises(RankCrashedError):
                comm.send(b"x", dest=1)
            return "handled"

        plan = FaultPlan().crash(rank=1, at_time=0.0)
        out = smpi.launch(2, fn, faults=plan)
        assert out.results[0] == "handled"


class TestErrhandlers:
    def test_default_is_errors_are_fatal(self):
        def fn(comm):
            return comm.get_errhandler()

        assert smpi.run(1, fn) == [smpi.ERRORS_ARE_FATAL]

    def test_set_and_get_round_trip(self):
        def fn(comm):
            comm.Set_errhandler(smpi.ERRORS_RETURN)  # uppercase alias too
            return comm.Get_errhandler()

        assert smpi.run(1, fn) == [smpi.ERRORS_RETURN]

    def test_rejects_unknown_handler(self):
        def fn(comm):
            with pytest.raises(SMPIError):
                comm.set_errhandler("errors_abort")
            return True

        assert smpi.run(1, fn) == [True]


class TestTimeouts:
    def test_recv_timeout_advances_clock_to_deadline(self):
        def fn(comm):
            with pytest.raises(SmpiTimeoutError):
                comm.recv(source=smpi.ANY_SOURCE, timeout=2e-3)
            return comm.clock_now() if hasattr(comm, "clock_now") else None

        out = smpi.launch(1, fn, check=False)
        assert out.error is None
        timeouts = [
            e for e in out.tracer.events if e.primitive == "fault_timeout"
        ]
        assert len(timeouts) == 1
        assert timeouts[0].t_end - timeouts[0].t_start == pytest.approx(2e-3)

    def test_wait_timeout_keeps_the_request_pending(self):
        def fn(comm):
            if comm.rank == 0:
                comm.compute(flops=1e8)  # be late on purpose
                comm.send("eventually", dest=1)
                return None
            req = comm.irecv(source=0)
            with pytest.raises(SmpiTimeoutError):
                req.wait(timeout=1e-6)
            return req.wait()  # the request is still live; wait again

        out = smpi.launch(2, fn)
        assert out.results[1] == "eventually"


class TestRetryHelper:
    def test_returns_first_success(self):
        calls = []

        def fn(timeout):
            calls.append(timeout)
            if len(calls) < 3:
                raise SmpiTimeoutError("not yet")
            return "done"

        assert retry_with_backoff(fn, attempts=4, base_timeout=1.0) == "done"
        assert calls == [1.0, 2.0, 4.0]

    def test_reraises_after_exhaustion(self):
        def fn(timeout):
            raise SmpiTimeoutError("never")

        with pytest.raises(SmpiTimeoutError, match="never"):
            retry_with_backoff(fn, attempts=2)

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def fn(timeout):
            calls.append(timeout)
            raise RankCrashedError("peer is gone")

        with pytest.raises(RankCrashedError):
            retry_with_backoff(fn, attempts=5)
        assert len(calls) == 1

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            retry_with_backoff(lambda t: t, attempts=0)
        with pytest.raises(ValidationError):
            retry_with_backoff(lambda t: t, base_timeout=0.0)
        with pytest.raises(ValidationError):
            retry_with_backoff(lambda t: t, backoff=0.5)

    def test_custom_retry_on_is_honoured(self):
        """Errors named in ``retry_on`` are retried even when they are
        not timeouts."""
        calls = []

        def fn(timeout):
            calls.append(timeout)
            if len(calls) < 2:
                raise RankCrashedError("transient in this drill")
            return "ok"

        got = retry_with_backoff(
            fn, attempts=3, base_timeout=1.0,
            retry_on=(RankCrashedError,),
        )
        assert got == "ok"
        assert calls == [1.0, 2.0]

    @pytest.mark.parametrize(
        "exc", [SmpiRevokedError("comm 0 revoked"), DeadlockError("stuck")]
    )
    def test_hard_stop_errors_never_retry(self, exc):
        """A revoked communicator or an aborted (deadlocked) world is
        permanent: even an explicit ``retry_on`` match must not burn
        further attempts — the error propagates on the first hit."""
        calls = []

        def fn(timeout):
            calls.append(timeout)
            raise exc

        with pytest.raises(type(exc)):
            retry_with_backoff(
                fn, attempts=5, retry_on=(type(exc), SmpiTimeoutError)
            )
        assert len(calls) == 1
        assert isinstance(exc, HARD_STOP_ERRORS)

    def test_hard_stop_from_inside_a_run(self):
        """End to end: a retry loop wrapped around a recv on a revoked
        communicator gives up immediately instead of re-arming timeouts."""

        def fn(comm):
            comm.set_errhandler(smpi.ERRORS_RETURN)
            if comm.rank == 1:
                comm.revoke()
                return None
            attempts = []

            def once(timeout):
                attempts.append(timeout)
                return comm.recv(source=1, timeout=timeout)

            with pytest.raises(SmpiRevokedError):
                retry_with_backoff(
                    once, attempts=4, base_timeout=1e-3,
                    retry_on=(SmpiTimeoutError, SmpiRevokedError),
                )
            return len(attempts)

        out = smpi.launch(2, fn)
        assert out.results[0] == 1  # exactly one attempt, no backoff


class TestPlanRanksOutsideTheWorld:
    """A fault naming a rank the world does not have could never fire,
    so building the world rejects it instead of running fault-free."""

    @pytest.mark.parametrize(
        "plan, named",
        [
            (FaultPlan().crash(99, at_time=0.0), "fault 'crash0': rank 99"),
            (FaultPlan().crash(4, on_nth_send=1), "fault 'crash0': rank 4"),
            (FaultPlan().crash(-1, at_time=0.0), "fault 'crash0': rank -1"),
            (FaultPlan().drop(src=42), "fault 'drop0': src 42"),
            (FaultPlan().duplicate(dst=4), "fault 'duplicate0': dst 4"),
            (FaultPlan().delay(1e-3, src=-2), "fault 'delay0': src -2"),
            (FaultPlan().slow_link(2.0, dst=7), "fault 'slow_link0': dst 7"),
        ],
    )
    def test_out_of_range_rank_is_a_validation_error(self, plan, named):
        with pytest.raises(ValidationError) as info:
            smpi.launch(4, _pingpong, faults=plan, check=False)
        assert str(info.value).startswith(named)
        assert "nprocs=4" in str(info.value)

    def test_any_and_every_rank_of_the_world_are_accepted(self):
        plan = (
            FaultPlan()
            .drop(src=-1, dst=1, count=1)
            .delay(1e-6, src=1, dst=-1)
            .crash(1, at_time=1.0)
        )
        out = smpi.launch(2, _pingpong, faults=plan, check=False)
        assert isinstance(out.error, SmpiTimeoutError)  # the drop fired
