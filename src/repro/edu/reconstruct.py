"""Reconstructing the per-student quiz scores behind Figure 2.

The paper publishes Figure 2 (per-student pre/post bars) only as a
plot, but Table IV and the surrounding text pin the underlying dataset
tightly:

* 42 pre/post pairs; 7 of 10 students completed all five quizzes;
* the per-quiz means are exact decimals whose denominators reveal the
  per-quiz participation and point totals —
  88.89% = 48/54 → 9 students × 6 points (quiz 1),
  82.22% = 37/45 → 9 × 5 (quiz 2),
  69.50%/77.78% → 9 participants, 0.5%-resolution scores (quiz 3),
  60.71% = 17/28 → 7 × 4 (quiz 4),
  80.21% = 77/96 → 8 × 12 (quiz 5);
  those participation counts sum to 9+9+9+7+8 = 42, matching the total;
* 17 pairs equal, 19 increased, 6 decreased;
* students 2, 5, 6, 8, 9, 10 never decreased; each of 1, 3, 4, 7
  decreased at least once;
* the mean relative increase is 47.86% and decrease 27.30% (the paper's
  post-normalized formula).

:func:`reconstruct_cohort_scores` runs a seeded simulated-annealing
search for an integer score assignment satisfying **all** the discrete
constraints exactly and the two relative-change means to within a small
tolerance.  The result is *a* dataset consistent with everything the
paper published — the strongest reconstruction possible without the raw
data — and Table IV is then recomputed from it (benchmark T4).

Which students are the partial completers is not published; we fix
students 8-10 as partial (8 → quizzes 1-3, 9 → quizzes 2-3,
10 → quizzes 1 and 5), which realizes the per-quiz participation counts
above while keeping the never-decreased set consistent.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from repro.edu.quiz import QuizPair
from repro.errors import ReconstructionError
from repro.util.rng import spawn_rng


@dataclass(frozen=True)
class QuizTargets:
    """Ground-truth aggregates for one quiz (raw score units)."""

    number: int
    points: int
    participants: tuple[int, ...]
    pre_sum: int
    post_sum: int


@dataclass(frozen=True)
class ReconstructionSpec:
    """All published aggregates the reconstruction must satisfy."""

    quizzes: tuple[QuizTargets, ...]
    equal: int
    increase: int
    decrease: int
    monotone_students: frozenset[int]
    must_decrease_students: frozenset[int]
    target_rel_increase: float  # percent, post-normalized
    target_rel_decrease: float


_FULL = (1, 2, 3, 4, 5, 6, 7)

PAPER_SPEC = ReconstructionSpec(
    quizzes=(
        QuizTargets(1, 6, _FULL + (8, 10), pre_sum=48, post_sum=53),
        QuizTargets(2, 5, _FULL + (8, 9), pre_sum=37, post_sum=40),
        QuizTargets(3, 200, _FULL + (8, 9), pre_sum=1251, post_sum=1400),
        QuizTargets(4, 4, _FULL, pre_sum=17, post_sum=19),
        QuizTargets(5, 12, _FULL + (10,), pre_sum=77, post_sum=76),
    ),
    equal=17,
    increase=19,
    decrease=6,
    monotone_students=frozenset({2, 5, 6, 8, 9, 10}),
    must_decrease_students=frozenset({1, 3, 4, 7}),
    target_rel_increase=47.86,
    target_rel_decrease=27.30,
)


def _pair_terms(pre: int, post: int, monotone: bool) -> tuple[int, int, int, float, float]:
    """One pair's share of the energy: (increase, decrease, penalty,
    relative-increase term, relative-decrease term).

    ``penalty`` is the pair's own hard-violation score: 2 for a
    decrease by a never-decrease student, 3 for a zero post score on a
    changed pair.  A term that does not apply is ``0.0``.
    """
    d = post - pre
    if d == 0:
        return 0, 0, 0, 0.0, 0.0
    if post == 0:
        return int(d > 0), int(d < 0), 3 + 2 * (d < 0 and monotone), 0.0, 0.0
    if d > 0:
        return 1, 0, 0, d / post, 0.0
    return 0, 1, 2 * monotone, 0.0, -d / post


class _State:
    """Solver state over all (student, quiz) pairs, with the energy kept
    incrementally.

    Plain Python lists: at 42 pairs a scalar loop is several times
    faster than small-array numpy.  Each pair's share of the energy is
    kept in ``terms``; a move changes two pairs, so :func:`_anneal`
    re-scores only those two.  A changed relative-change sum is re-added
    over the contributing pairs in index order, the same additions as a
    full rescan, so it is bit-identical (builtin ``sum`` is not: it
    compensates rounding on 3.12+).
    """

    def __init__(self, spec: ReconstructionSpec, rng: np.random.Generator):
        self.spec = spec
        students, quizzes, points = [], [], []
        self.quiz_slices: dict[int, list[int]] = {}
        idx = 0
        for qt in spec.quizzes:
            ids = []
            for s in qt.participants:
                students.append(s)
                quizzes.append(qt.number)
                points.append(qt.points)
                ids.append(idx)
                idx += 1
            self.quiz_slices[qt.number] = ids
        self.students = students
        self.quizzes = quizzes
        self.points = points
        self.n = idx
        self.monotone = [s in spec.monotone_students for s in students]
        self.pre = [0] * self.n
        self.post = [0] * self.n
        for qt in spec.quizzes:
            ids = self.quiz_slices[qt.number]
            for i, v in zip(ids, self._spread(qt.pre_sum, qt.points, len(ids), rng)):
                self.pre[i] = v
            for i, v in zip(ids, self._spread(qt.post_sum, qt.points, len(ids), rng)):
                self.post[i] = v
        self.terms = [
            _pair_terms(a, b, m) for a, b, m in zip(self.pre, self.post, self.monotone)
        ]
        self.inc = sum(t[0] for t in self.terms)
        self.dec = sum(t[1] for t in self.terms)
        self.penalty = sum(t[2] for t in self.terms)
        self.inc_terms = [t[3] for t in self.terms]
        self.dec_terms = [t[4] for t in self.terms]
        self.rel_inc_sum = _fold(self.inc_terms)
        self.rel_dec_sum = _fold(self.dec_terms)
        # Decreased pairs per student, for the must-decrease students only.
        self.dec_count = {s: 0 for s in spec.must_decrease_students}
        for s, t in zip(students, self.terms):
            if s in self.dec_count:
                self.dec_count[s] += t[1]
        self.missing = sum(1 for c in self.dec_count.values() if c == 0)

    @staticmethod
    def _spread(total: int, cap: int, n: int, rng: np.random.Generator) -> list[int]:
        """Integers in [0, cap] summing to ``total``, near-uniform."""
        base = total // n
        out = [base] * n
        remainder = total - base * n
        order = rng.permutation(n)
        for i in range(remainder):
            out[order[i % n]] += 1
        out = [min(max(v, 0), cap) for v in out]
        diff = total - sum(out)
        while diff != 0:
            i = int(rng.integers(0, n))
            step = 1 if diff > 0 else -1
            if 0 <= out[i] + step <= cap:
                out[i] += step
                diff -= step
        return out

    def energy(self) -> tuple[float, float]:
        """Returns (hard_violations, soft_error) of the current scores.

        Hard: direction-count mismatches, monotone violations, missing
        required decreases, zero post scores on changed pairs.  Soft:
        distance of the two relative-change means from their targets
        (percentage points).  :func:`_anneal` scores its moves with the
        same expressions.
        """
        spec, inc, dec = self.spec, self.inc, self.dec
        hard = (
            abs(inc - spec.increase)
            + abs(dec - spec.decrease)
            + abs(self.n - inc - dec - spec.equal)
            + self.penalty
            + 2 * self.missing
        )
        soft = 0.0
        if inc:
            soft += abs(100.0 * self.rel_inc_sum / inc - spec.target_rel_increase)
        else:
            soft += spec.target_rel_increase
        if dec:
            soft += abs(100.0 * self.rel_dec_sum / dec - spec.target_rel_decrease)
        else:
            soft += spec.target_rel_decrease
        return float(hard), soft


def _fold(terms: list[float]) -> float:
    """Left-to-right float sum of the non-zero terms, the same on every
    Python version."""
    return functools.reduce(operator.add, filter(None, terms), 0.0)


def _anneal(
    state: _State,
    rng: np.random.Generator,
    iterations: int,
    *,
    soft_tolerance: float,
) -> tuple[list[int], list[int], float, float]:
    """Metropolis search over point moves within one quiz's scores.

    The energy is kept incrementally in locals and written back to
    ``state`` when the search ends.  A move's integer hard score is
    computed first.  The soft error is never negative and float
    rounding is monotone, so ``delta_e >= lb`` with
    ``lb = (new_hard - hard) * 100.0 - soft``.  When ``lb > 0`` the
    acceptance draw ``u`` is taken at once, and the move is rejected
    without its relative-change sums if ``u >= 2 * exp(-lb / T)``: the
    full test ``u < exp(-delta_e / T)`` could not pass, the factor 2
    absorbing ``exp``'s last-ulp error (a non-zero ``u`` is at least
    2**-53, far above the subnormals).  Every other move is scored in
    full and tested against the same ``u``, so the search takes the
    same draws and the same steps as scoring every move in full.
    """
    import math
    import random

    # The hot loop uses the stdlib PRNG (far lower per-call overhead);
    # its seed derives from the numpy stream, keeping runs deterministic.
    # Its draws are inlined: ``randrange(n)`` is ``getrandbits(k)`` for
    # k = n.bit_length(), redrawn while >= n, and ``randint(1, b)`` is
    # ``1 + randrange(b)``, so the stream matches those calls exactly.
    py_rng = random.Random(int(rng.integers(0, 2**63 - 1)))
    getrandbits, uniform, exp = py_rng.getrandbits, py_rng.random, math.exp
    hard, soft = state.energy()
    best = (state.pre.copy(), state.post.copy(), hard, soft)
    temperature = 4.0
    cooling = (0.002 / temperature) ** (1.0 / max(iterations, 1))
    quizzes = []
    for ids in state.quiz_slices.values():
        cap = state.points[ids[0]] if ids else 0
        steps = max(1, cap // 12)
        quizzes.append((ids, len(ids), len(ids).bit_length(), cap, steps, steps.bit_length()))
    nq, nq_bits = len(quizzes), len(quizzes).bit_length()
    spec = state.spec
    want_inc, want_dec = spec.increase, spec.decrease
    want_changed = state.n - spec.equal
    target_inc, target_dec = spec.target_rel_increase, spec.target_rel_decrease
    pre, post, monotone, students = state.pre, state.post, state.monotone, state.students
    terms, dec_count = state.terms, state.dec_count
    inc_terms, dec_terms = state.inc_terms, state.dec_terms
    inc, dec, penalty, missing = state.inc, state.dec, state.penalty, state.missing
    rel_inc_sum, rel_dec_sum = state.rel_inc_sum, state.rel_dec_sum
    for _ in range(iterations):
        r = getrandbits(nq_bits)
        while r >= nq:
            r = getrandbits(nq_bits)
        ids, n, bits, cap, steps, step_bits = quizzes[r]
        if n < 2:
            continue
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        i = ids[r]
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        j = ids[r]
        if i == j:
            continue
        moves_pre = uniform() < 0.5
        arr = pre if moves_pre else post
        r = getrandbits(step_bits)
        while r >= steps:
            r = getrandbits(step_bits)
        step = 1 + r
        if arr[i] + step > cap or arr[j] - step < 0:
            continue
        # Score the move: ``i`` and ``j`` are distinct pairs of one quiz,
        # hence of different students.
        if moves_pre:
            new_i = _pair_terms(pre[i] + step, post[i], monotone[i])
            new_j = _pair_terms(pre[j] - step, post[j], monotone[j])
        else:
            new_i = _pair_terms(pre[i], post[i] + step, monotone[i])
            new_j = _pair_terms(pre[j], post[j] - step, monotone[j])
        old_i, old_j = terms[i], terms[j]
        new_inc = inc + new_i[0] + new_j[0] - old_i[0] - old_j[0]
        new_dec = dec + new_i[1] + new_j[1] - old_i[1] - old_j[1]
        new_penalty = penalty + new_i[2] + new_j[2] - old_i[2] - old_j[2]
        new_missing = missing
        if new_i[1] != old_i[1] and dec_count.get(students[i]) == old_i[1]:
            # A must-decrease student gains its first or loses its last
            # decreased pair.
            new_missing += old_i[1] - new_i[1]
        if new_j[1] != old_j[1] and dec_count.get(students[j]) == old_j[1]:
            new_missing += old_j[1] - new_j[1]
        new_hard = float(
            abs(new_inc - want_inc)
            + abs(new_dec - want_dec)
            + abs(want_changed - new_inc - new_dec)
            + new_penalty
            + 2 * new_missing
        )
        lb = (new_hard - hard) * 100.0 - soft
        if lb > 0:
            u = uniform()
            if u and u >= 2.0 * exp(-lb / temperature):
                temperature *= cooling
                continue
        # Full score: a changed relative-change sum is re-folded with the
        # move applied to its terms, which a rejection restores.
        inc_changed = new_i[3] != inc_terms[i] or new_j[3] != inc_terms[j]
        if inc_changed:
            inc_terms[i], inc_terms[j] = new_i[3], new_j[3]
            new_rel_inc = _fold(inc_terms)
        else:
            new_rel_inc = rel_inc_sum
        dec_changed = new_i[4] != dec_terms[i] or new_j[4] != dec_terms[j]
        if dec_changed:
            dec_terms[i], dec_terms[j] = new_i[4], new_j[4]
            new_rel_dec = _fold(dec_terms)
        else:
            new_rel_dec = rel_dec_sum
        new_soft = 0.0
        if new_inc:
            new_soft += abs(100.0 * new_rel_inc / new_inc - target_inc)
        else:
            new_soft += target_inc
        if new_dec:
            new_soft += abs(100.0 * new_rel_dec / new_dec - target_dec)
        else:
            new_soft += target_dec
        delta_e = (new_hard - hard) * 100.0 + (new_soft - soft)
        if delta_e > 0:
            if lb <= 0:
                u = uniform()
            if u >= exp(-delta_e / temperature):
                if inc_changed:
                    inc_terms[i], inc_terms[j] = old_i[3], old_j[3]
                if dec_changed:
                    dec_terms[i], dec_terms[j] = old_i[4], old_j[4]
                temperature *= cooling
                continue
        # Accept.
        arr[i] += step
        arr[j] -= step
        if students[i] in dec_count:
            dec_count[students[i]] += new_i[1] - old_i[1]
        if students[j] in dec_count:
            dec_count[students[j]] += new_j[1] - old_j[1]
        terms[i], terms[j] = new_i, new_j
        inc, dec, penalty, missing = new_inc, new_dec, new_penalty, new_missing
        rel_inc_sum, rel_dec_sum = new_rel_inc, new_rel_dec
        hard, soft = new_hard, new_soft
        if (hard, soft) < (best[2], best[3]):
            best = (pre.copy(), post.copy(), hard, soft)
            if hard == 0 and soft <= soft_tolerance:
                break
        temperature *= cooling
    state.inc, state.dec, state.penalty, state.missing = inc, dec, penalty, missing
    state.rel_inc_sum, state.rel_dec_sum = rel_inc_sum, rel_dec_sum
    return best


@dataclass(frozen=True)
class Reconstruction:
    """A cohort score dataset consistent with the published aggregates."""

    pairs: tuple[QuizPair, ...]
    rel_increase_error: float  # |achieved - 47.86| in percentage points
    rel_decrease_error: float
    spec: ReconstructionSpec = field(repr=False, default=PAPER_SPEC)


@functools.lru_cache(maxsize=4)
def _solve_cached(seed: int, iterations: int, soft_tolerance: float) -> Reconstruction:
    return solve_reconstruction(
        PAPER_SPEC, seed=seed, iterations=iterations, soft_tolerance=soft_tolerance
    )


def solve_reconstruction(
    spec: ReconstructionSpec,
    *,
    seed: int = 0,
    iterations: int = 120_000,
    soft_tolerance: float = 0.05,
) -> Reconstruction:
    """Solve an arbitrary aggregate spec (uncached).

    Use :func:`reconstruct_cohort_scores` for the paper's spec; this
    entry point exists for sensitivity studies and for testing that
    infeasible specs are *rejected* rather than silently approximated.
    """
    best: tuple | None = None
    for restart in range(6):
        rng = spawn_rng(seed, "reconstruct", restart)
        state = _State(spec, rng)
        pre, post, hard, soft = _anneal(
            state, rng, iterations, soft_tolerance=soft_tolerance
        )
        if best is None or (hard, soft) < (best[2], best[3]):
            best = (pre, post, hard, soft, state)
        if hard == 0 and soft <= soft_tolerance:
            break
    pre, post, hard, soft, state = best
    if hard > 0:
        raise ReconstructionError(
            f"could not satisfy the discrete Table IV constraints "
            f"(residual violation score {hard}); increase iterations"
        )
    pairs = []
    for i in range(state.n):
        cap = state.points[i]
        pairs.append(
            QuizPair(
                student=int(state.students[i]),
                quiz=int(state.quizzes[i]),
                pre=100.0 * int(pre[i]) / int(cap),
                post=100.0 * int(post[i]) / int(cap),
            )
        )
    inc_terms = [
        (post[i] - pre[i]) / post[i] for i in range(state.n) if post[i] > pre[i]
    ]
    dec_terms = [
        (pre[i] - post[i]) / post[i] for i in range(state.n) if post[i] < pre[i]
    ]
    rel_inc = 100.0 * sum(inc_terms) / len(inc_terms)
    rel_dec = 100.0 * sum(dec_terms) / len(dec_terms)
    return Reconstruction(
        pairs=tuple(pairs),
        rel_increase_error=abs(rel_inc - spec.target_rel_increase),
        rel_decrease_error=abs(rel_dec - spec.target_rel_decrease),
        spec=spec,
    )


def reconstruct_cohort_scores(
    seed: int = 0,
    iterations: int = 120_000,
    soft_tolerance: float = 0.05,
) -> Reconstruction:
    """Solve for a score dataset matching every published aggregate.

    Deterministic for a given ``(seed, iterations)``.  Raises
    :class:`~repro.errors.ReconstructionError` if the discrete
    constraints cannot be met within the search budget; the two
    relative-change means are matched to within ``soft_tolerance``
    percentage points (achieved errors are reported on the result).
    """
    return _solve_cached(seed, iterations, soft_tolerance)
