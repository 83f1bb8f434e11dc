"""Differential test: the indexed mailbox against a linear-scan matcher.

``ReferenceQueues`` is the textbook two-list MPI matcher: one posted list
in post order, one unexpected list in arrival order, every lookup a
linear scan.  Hypothesis drives it and :class:`MatchingQueues` with the
same operation sequences (wildcards, holds, cancels, requeues and
revocation purges included) and every result and queue view must agree.
"""

from hypothesis import given, settings, strategies as st

from repro.smpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.smpi.message import Envelope, MatchingQueues, PostedRecv


class ReferenceQueues:
    """Linear-scan matching queues of one rank."""

    def __init__(self):
        self.posted = []
        self.unexpected = []

    def match_arriving(self, env):
        for pr in self.posted:
            if not pr.hold and pr.accepts(env):
                self.posted.remove(pr)
                pr.envelope = env
                return pr
        self.unexpected.append(env)
        return None

    def post(self, pr):
        self.posted.append(pr)

    def cancel(self, pr):
        if pr in self.posted:
            self.posted.remove(pr)
            return True
        return False

    def peek_unexpected(self, source, tag, cid):
        for env in self.unexpected:
            if env.matches(source, tag, cid):
                return env
        return None

    def take_unexpected(self, source, tag, cid):
        env = self.peek_unexpected(source, tag, cid)
        if env is not None:
            self.unexpected.remove(env)
        return env

    def remove_unexpected(self, env):
        self.unexpected.remove(env)

    def first_matching_per_source(self, source, tag, cid):
        firsts = {}
        for env in self.unexpected:
            if env.matches(source, tag, cid) and env.source not in firsts:
                firsts[env.source] = env
        return list(firsts.values())

    def requeue(self, env):
        self.unexpected.insert(0, env)

    def purge_cid(self, cid):
        self.unexpected = [env for env in self.unexpected if env.comm_cid != cid]


# Small key spaces, so posted receives, arrivals and wildcards collide.
SOURCES = st.sampled_from([ANY_SOURCE, 1, 2])
TAGS = st.sampled_from([ANY_TAG, 0, 1])
CIDS = st.sampled_from([0, 1])
PICK = st.integers(0, 7)
POST = st.tuples(st.just("post"), SOURCES, TAGS, CIDS, st.booleans())
ARRIVE = st.tuples(st.just("arrive"), st.sampled_from([1, 2]), st.sampled_from([0, 1]), CIDS)

OPS = st.one_of(
    POST,
    POST,
    ARRIVE,
    ARRIVE,
    st.tuples(st.just("cancel"), PICK),
    st.tuples(st.just("take"), SOURCES, TAGS, CIDS),
    st.tuples(st.just("peek"), SOURCES, TAGS, CIDS),
    st.tuples(st.just("remove"), SOURCES, TAGS, CIDS, PICK),
    st.tuples(st.just("requeue"), PICK),
    st.tuples(st.just("purge"), CIDS),
)


def _seqs(items):
    return [item.seq for item in items]


def _seq(item):
    return None if item is None else item.seq


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, min_size=20, max_size=80))
def test_indexed_queues_match_the_linear_scan(ops):
    ref, real = ReferenceQueues(), MatchingQueues(0)
    # twin objects per implementation, identified by their shared seq
    posts = []  # (reference PostedRecv, real PostedRecv)
    out = {}    # seq -> (reference Envelope, real Envelope) no longer queued
    envs = {}   # seq -> (reference Envelope, real Envelope)
    for n, op in enumerate(ops):
        kind, args = op[0], op[1:]
        if kind == "post":
            source, tag, cid, hold = args
            # the runtime holds only wildcard receives (sanitized ones)
            hold = hold and (source == ANY_SOURCE or tag == ANY_TAG)
            twins = tuple(
                PostedRecv(dest=0, source=source, tag=tag, comm_cid=cid,
                           post_time=0.0, hold=hold, seq=n)
                for _ in range(2)
            )
            posts.append(twins)
            ref.post(twins[0])
            real.post(twins[1])
        elif kind == "cancel":
            if posts:
                a, b = posts[args[0] % len(posts)]
                assert ref.cancel(a) == real.cancel(b)
        elif kind == "arrive":
            source, tag, cid = args
            twins = tuple(
                Envelope(source=source, dest=0, tag=tag, payload=n, nbytes=8,
                         send_time=float(n), net_time=1e-6, comm_cid=cid, seq=n)
                for _ in range(2)
            )
            envs[n] = twins
            got = (ref.match_arriving(twins[0]), real.match_arriving(twins[1]))
            assert _seq(got[0]) == _seq(got[1])
            if got[0] is not None:
                out[n] = twins
        elif kind in ("take", "peek"):
            a = getattr(ref, f"{kind}_unexpected")(*args)
            b = getattr(real, f"{kind}_unexpected")(*args)
            assert _seq(a) == _seq(b)
            if kind == "take" and a is not None:
                out[a.seq] = envs[a.seq]
        elif kind == "remove":
            *key, pick = args
            a = ref.first_matching_per_source(*key)
            b = real.first_matching_per_source(*key)
            assert _seqs(a) == _seqs(b)
            if a:
                i = pick % len(a)
                ref.remove_unexpected(a[i])
                real.remove_unexpected(b[i])
                out[a[i].seq] = envs[a[i].seq]
        elif kind == "requeue":
            if out:
                seq = sorted(out)[args[0] % len(out)]
                a, b = out.pop(seq)
                ref.requeue(a)
                real.requeue(b)
        elif kind == "purge":
            ref.purge_cid(args[0])
            real.purge_cid(args[0])
        assert _seqs(ref.unexpected) == _seqs(real.unexpected)
        assert _seqs(ref.posted) == _seqs(real.posted)
