"""Semantics of the indexed mailbox (`repro.smpi.message`).

The `(comm_cid, source, tag)`-indexed queues must behave exactly like
the historical linear-scan lists: post-order matching for arriving
envelopes, arrival-order (non-overtaking) consumption for receives, and
— the satellite-2 regression — envelopes that only a sanitizer-*held*
receive accepts must still be appended to the unexpected queue and stay
visible to ``first_matching_per_source`` (the hold resolver's candidate
set).
"""

import itertools

import pytest

from repro import smpi
from repro.sanitize import Sanitizer, capture
from repro.smpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.smpi.message import Envelope, MatchingQueues, PostedRecv

_seq = itertools.count()


def _env(source=1, dest=0, tag=5, cid=0, payload=None, t=0.0):
    return Envelope(
        source=source, dest=dest, tag=tag,
        payload=payload if payload is not None else f"s{source}t{tag}",
        nbytes=8, send_time=t, net_time=1e-6, comm_cid=cid, seq=next(_seq),
    )


def _pr(dest=0, source=1, tag=5, cid=0, hold=False, t=0.0):
    return PostedRecv(
        dest=dest, source=source, tag=tag, comm_cid=cid, post_time=t, hold=hold,
        seq=next(_seq),
    )


class TestPostedMatching:
    def test_exact_receive_matches_exact_key(self):
        q = MatchingQueues(0)
        pr = _pr(source=1, tag=5)
        q.post(pr)
        assert q.match_arriving(_env(source=1, tag=5)) is pr
        assert pr.matched and q.posted == []

    def test_post_order_breaks_exact_vs_wildcard_ties(self):
        # The earliest-*posted* accepting receive wins, wherever it lives.
        q = MatchingQueues(0)
        wild = _pr(source=ANY_SOURCE, tag=5)
        exact = _pr(source=1, tag=5)
        q.post(wild)
        q.post(exact)
        assert q.match_arriving(_env(source=1, tag=5)) is wild
        assert q.match_arriving(_env(source=1, tag=5)) is exact

        q2 = MatchingQueues(0)
        exact2 = _pr(source=1, tag=5)
        wild2 = _pr(source=ANY_SOURCE, tag=5)
        q2.post(exact2)
        q2.post(wild2)
        assert q2.match_arriving(_env(source=1, tag=5)) is exact2
        assert q2.match_arriving(_env(source=1, tag=5)) is wild2

    def test_cancel_removes_from_either_structure(self):
        q = MatchingQueues(0)
        wild, exact = _pr(source=ANY_SOURCE, tag=1), _pr(source=2, tag=1)
        q.post(wild)
        q.post(exact)
        assert q.cancel(wild) and q.cancel(exact)
        assert not q.cancel(wild)  # already gone
        assert q.posted == []

    def test_posted_property_is_post_ordered(self):
        q = MatchingQueues(0)
        prs = [_pr(source=ANY_SOURCE, tag=1), _pr(source=1, tag=1), _pr(source=2, tag=9)]
        for pr in prs:
            q.post(pr)
        assert q.posted == prs


class TestHoldInterplay:
    """Satellite-2 regression: the hold/unexpected interplay."""

    def test_held_receive_never_matches_eagerly(self):
        q = MatchingQueues(0)
        held = _pr(source=ANY_SOURCE, tag=5, hold=True)
        q.post(held)
        env = _env(source=3, tag=5)
        # The held receive *accepts* the envelope but must not take it:
        assert held.accepts(env)
        assert q.match_arriving(env) is None
        assert not held.matched

    def test_hold_time_arrival_lands_in_unexpected_and_candidates(self):
        q = MatchingQueues(0)
        q.post(_pr(source=ANY_SOURCE, tag=5, hold=True))
        envs = [_env(source=s, tag=5, t=float(s)) for s in (3, 1, 2)]
        for env in envs:
            assert q.match_arriving(env) is None
        # Arrival order is preserved in the unexpected view...
        assert q.unexpected == envs
        # ...and every source's head-of-line is a resolver candidate.
        cands = q.first_matching_per_source(ANY_SOURCE, 5, 0)
        assert sorted(c.source for c in cands) == [1, 2, 3]

    def test_candidates_are_heads_of_line_per_source(self):
        q = MatchingQueues(0)
        first_s1 = _env(source=1, tag=5, t=0.0, payload="a")
        later_s1 = _env(source=1, tag=5, t=1.0, payload="b")
        only_s2 = _env(source=2, tag=5, t=0.5, payload="c")
        for env in (first_s1, later_s1, only_s2):
            q.match_arriving(env)
        cands = q.first_matching_per_source(ANY_SOURCE, 5, 0)
        assert set(id(c) for c in cands) == {id(first_s1), id(only_s2)}
        # remove_unexpected (the resolver's consumption) keeps the rest
        # in arrival order.
        q.remove_unexpected(first_s1)
        assert q.unexpected == [later_s1, only_s2]

    def test_sanitized_wildcard_run_end_to_end(self):
        """Hold-time arrivals resolve deterministically through the world
        stall machinery over the indexed mailbox."""

        def fan_in(comm):
            if comm.rank == 0:
                return [comm.recv(source=smpi.ANY_SOURCE, tag=9) for _ in range(3)]
            comm.send(comm.rank * 10, dest=0, tag=9)
            return None

        with capture(Sanitizer()) as san:
            results = smpi.run(4, fan_in)
        # match_order="first": earliest (send_time, source) per stall.
        assert results[0] == [10, 20, 30]
        assert len(san.matches) == 3  # every recv resolved via a hold


class TestUnexpectedConsumption:
    def test_exact_take_is_fifo_per_key(self):
        q = MatchingQueues(0)
        a, b = _env(source=1, tag=5, payload="a"), _env(source=1, tag=5, payload="b")
        q.match_arriving(a)
        q.match_arriving(b)
        assert q.take_unexpected(1, 5, 0) is a  # non-overtaking
        assert q.take_unexpected(1, 5, 0) is b
        assert q.take_unexpected(1, 5, 0) is None

    def test_wildcard_take_follows_arrival_order_across_sources(self):
        q = MatchingQueues(0)
        order = [(2, "x"), (1, "y"), (2, "z")]
        for src, pay in order:
            q.match_arriving(_env(source=src, tag=7, payload=pay))
        got = [q.take_unexpected(ANY_SOURCE, 7, 0).payload for _ in range(3)]
        assert got == ["x", "y", "z"]

    def test_any_tag_take_scans_arrival_order(self):
        q = MatchingQueues(0)
        q.match_arriving(_env(source=1, tag=3, payload="t3"))
        q.match_arriving(_env(source=1, tag=4, payload="t4"))
        assert q.take_unexpected(1, ANY_TAG, 0).payload == "t3"
        assert q.peek_unexpected(1, ANY_TAG, 0).payload == "t4"

    def test_peek_does_not_consume(self):
        q = MatchingQueues(0)
        env = _env(source=1, tag=5)
        q.match_arriving(env)
        assert q.peek_unexpected(1, 5, 0) is env
        assert q.peek_unexpected(1, 5, 0) is env
        assert q.take_unexpected(1, 5, 0) is env

    def test_requeue_restores_front_position(self):
        q = MatchingQueues(0)
        a, b = _env(source=1, tag=5, payload="a"), _env(source=1, tag=5, payload="b")
        q.match_arriving(a)
        q.match_arriving(b)
        taken = q.take_unexpected(1, 5, 0)
        q.requeue(taken)
        assert [e.payload for e in q.unexpected] == ["a", "b"]
        assert q.take_unexpected(1, 5, 0) is a

    def test_purge_cid_drops_only_that_communicator(self):
        q = MatchingQueues(0)
        keep = _env(source=1, tag=5, cid=1)
        q.match_arriving(_env(source=1, tag=5, cid=2))
        q.match_arriving(keep)
        q.match_arriving(_env(source=2, tag=5, cid=2))
        q.purge_cid(2)
        assert q.unexpected == [keep]
        assert q.take_unexpected(1, 5, 1) is keep

    def test_compaction_preserves_order_under_churn(self):
        q = MatchingQueues(0)
        for i in range(200):
            q.match_arriving(_env(source=1, tag=i % 3, payload=i))
            if i % 2:
                got = q.take_unexpected(ANY_SOURCE, ANY_TAG, 0)
                assert got is not None
        live = [e.payload for e in q.unexpected]
        assert live == sorted(live)  # arrival order survived compaction
        assert len(live) == 100

    def test_match_probe_stats_count_fast_and_slow_paths(self):
        q = MatchingQueues(0)
        q.match_arriving(_env(source=1, tag=5))
        q.match_arriving(_env(source=2, tag=5))
        q.take_unexpected(1, 5, 0)
        q.take_unexpected(ANY_SOURCE, 5, 0)
        assert q.stats["unexpected_enqueued"] == 2
        assert q.stats["indexed_hits"] == 1
        assert q.stats["wildcard_scans"] == 1


def test_runtime_publishes_wakeup_and_match_counters():
    """The launch epilogue folds the raw fast-path counters into the
    metrics registry — including the lost-wakeup gate, which must be 0."""

    def pingpong(comm):
        if comm.size == 1:
            return 0
        peer = comm.rank ^ 1
        if peer >= comm.size:
            return 0
        for i in range(5):
            got = comm.sendrecv(i, dest=peer, sendtag=1, source=peer, recvtag=1)
        return got

    out = smpi.launch(4, pingpong, trace=False)
    assert out.metrics.counter("smpi.wakeups.missed").value == 0
    assert out.metrics.counter("smpi.wakeups.targeted").value > 0
    assert out.metrics.counter("smpi.match.unexpected_enqueued").value >= 0
    # Exact-source receives must ride the indexed fast path.
    assert out.metrics.counter("smpi.match.indexed_hits").value > 0
