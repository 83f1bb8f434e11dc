"""Deterministic stress workloads for the smpi runtime fast paths.

Two workload families, both built only from the public ``Comm`` API so
they run identically on any runtime implementation:

* :func:`mixed_workload` — a seeded random mix of point-to-point
  (blocking, non-blocking, exact-source and wildcard), collectives and
  probes.  Every random decision is drawn from a stream shared by all
  ranks, all wildcard receives fold their payloads through commutative
  integer sums, and virtual completion times collapse under ``max`` —
  so the per-rank results *and* the final virtual clocks are
  byte-identical across OS thread schedules.  This is the substrate of
  the golden digest-identity stress test
  (``tests/smpi/test_fastpath_golden.py``): any matching or wakeup
  change that perturbs virtual-time behaviour shows up as a digest
  mismatch against the seed-commit recording.

* :func:`p2p_storm` / :func:`fanin_storm` — tight communication loops
  that measure nothing but runtime overhead (messages matched and ranks
  woken per real second), one latency-bound and one matching-bound.
  ``perfbench/`` times them at 32 ranks as its ``ring`` and ``fanin``
  workloads, and ``benchmarks/perf_gate.py`` gates a change's wall time
  on them against its parent commit's.

:func:`stress_digest` turns a finished run into one
:func:`~repro.recovery.checkpoint.state_digest` string covering results,
per-rank clocks and the makespan.
"""

from __future__ import annotations

from typing import Optional

from repro import smpi
from repro.util.rng import spawn_rng

#: tags used by the mixed workload (kept distinct so fault plans can
#: target one phase without touching the others).
TAG_SHIFT = 11
TAG_FANIN = 12
TAG_PAIR = 13
TAG_PROBE = 14


def mixed_workload(comm, *, rounds: int = 6, seed: int = 0, reps: int = 1) -> int:
    """A seeded p2p/collective/wildcard mix; returns an integer checksum.

    All ranks draw the round schedule from the same ``(seed,)`` stream,
    so they always agree on the pattern.  ``reps`` repeats each round's
    communication (same pattern, fresh payloads) to scale message volume
    without changing the schedule shape.
    """
    rng = spawn_rng(seed, "stress-mix")
    size = comm.size
    rank = comm.rank
    checksum = 0
    patterns = ("shift", "fanin", "pair", "allreduce", "bcast", "probe")
    for rnd in range(rounds):
        pattern = patterns[int(rng.integers(0, len(patterns)))]
        distance = 1 + int(rng.integers(0, max(size - 1, 1)))
        root = int(rng.integers(0, size))
        for rep in range(reps):
            token = rnd * 1000 + rep * 10
            if pattern == "shift" and size > 1:
                # Ring shift by a random distance: sendrecv cannot deadlock.
                got = comm.sendrecv(
                    rank * 7 + token,
                    dest=(rank + distance) % size,
                    sendtag=TAG_SHIFT,
                    source=(rank - distance) % size,
                    recvtag=TAG_SHIFT,
                )
                checksum += int(got)
            elif pattern == "fanin" and size > 1:
                # Wildcard fan-in: root consumes size-1 ANY_SOURCE
                # messages; the integer sum is match-order independent.
                if rank == root:
                    total = 0
                    for _ in range(size - 1):
                        total += int(
                            comm.recv(source=smpi.ANY_SOURCE, tag=TAG_FANIN)
                        )
                    checksum += total
                else:
                    comm.send(rank * 3 + token, dest=root, tag=TAG_FANIN)
            elif pattern == "pair" and size > 1:
                # Non-blocking pairwise exchange with a partner.
                partner = rank ^ 1
                if partner < size:
                    req = comm.isend(rank + token, dest=partner, tag=TAG_PAIR)
                    rreq = comm.irecv(source=partner, tag=TAG_PAIR)
                    checksum += int(rreq.wait())
                    req.wait()
                # An odd rank out simply sits this round out.
            elif pattern == "allreduce":
                checksum += int(comm.allreduce(rank + token, op=smpi.SUM))
            elif pattern == "bcast":
                checksum += int(comm.bcast(token if rank == root else None, root=root))
            elif pattern == "probe" and size > 1:
                # Exact-source probe then receive from the left neighbour.
                left = (rank - 1) % size
                right = (rank + 1) % size
                comm.send(rank + token, dest=right, tag=TAG_PROBE)
                status = smpi.Status()
                comm.probe(source=left, tag=TAG_PROBE, status=status)
                checksum += int(comm.recv(source=left, tag=TAG_PROBE))
                checksum += status.nbytes
        if pattern in ("fanin", "probe"):
            # Re-align rounds whose p2p pattern finishes ranks unevenly.
            comm.barrier()
    return checksum


def stress_digest(out) -> str:
    """One digest string for a finished :func:`repro.smpi.launch` run.

    Covers per-rank results, per-rank final virtual clocks, and the
    makespan — the full virtual-time outcome, but nothing that depends
    on real-time thread scheduling (trace event order, metric counts).
    """
    from repro.recovery.checkpoint import state_digest

    world = out.world
    return state_digest(
        {
            "results": list(out.results),
            "clocks": [world.rank_time(r) for r in range(world.nprocs)],
            "elapsed": world.elapsed(),
        }
    )


def p2p_storm(comm, *, messages: int = 200) -> int:
    """Neighbour exchange storm: each rank sendrecvs ``messages`` times
    with both ring neighbours.  Returns the number of messages this rank
    received (2 per iteration; the benchmark sums them across ranks).

    This pattern is *latency-bound*: queues stay shallow (one message in
    flight per neighbour pair) and each receive parks until its partner
    runs, so it measures per-message constant overhead plus scheduler
    wake latency — the floor the runtime cannot go below.
    """
    if comm.size == 1:
        return 0
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    received = 0
    for i in range(messages):
        comm.sendrecv(i, dest=right, sendtag=1, source=left, recvtag=1)
        comm.sendrecv(i, dest=left, sendtag=2, source=right, recvtag=2)
        received += 2
    return received


def fanin_storm(comm, *, messages: int = 100) -> int:
    """All-to-one flood: every rank isends ``messages`` messages to rank
    0, which drains them with *exact-source* receives in round-robin
    order.  Returns messages received (root) or sent (others).

    This pattern is *matching-bound*: the root's unexpected queue grows
    to ``(size-1)·messages`` interleaved envelopes, so every receive
    must find one source's head-of-line in a deep multi-source queue —
    O(depth) under a linear scan, O(1) under the ``(cid, source, tag)``
    index — and every delivery historically woke all blocked senders.
    It is the workload the fast paths exist for.
    """
    if comm.size == 1:
        return 0
    root = 0
    if comm.rank != root:
        reqs = [comm.isend(i, dest=root, tag=TAG_FANIN) for i in range(messages)]
        for r in reqs:
            r.wait()
        return messages
    got = 0
    for _ in range(messages):
        for src in range(1, comm.size):
            comm.recv(source=src, tag=TAG_FANIN)
            got += 1
    return got
