"""Tests for the Figure 2 / Table IV cohort reconstruction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.edu import PAPER_TABLE4, compute_table4, reconstruct_cohort_scores
from repro.edu.reconstruct import PAPER_SPEC, _State, _anneal, _fold, _pair_terms


@pytest.fixture(scope="module")
def reconstruction():
    # Cached across the module (and lru-cached in the package).
    return reconstruct_cohort_scores()


def test_spec_is_internally_consistent():
    # Participation counts match the 42-pair total and the inferred
    # per-quiz denominators.
    counts = [len(qt.participants) for qt in PAPER_SPEC.quizzes]
    assert counts == [9, 9, 9, 7, 8]
    assert sum(counts) == 42
    # Exactly 7 students appear in all five quizzes.
    from collections import Counter

    c = Counter(s for qt in PAPER_SPEC.quizzes for s in qt.participants)
    assert sum(1 for v in c.values() if v == 5) == 7


def test_spec_means_match_paper():
    for qt, (pre, post) in zip(
        PAPER_SPEC.quizzes,
        [(88.89, 98.15), (82.22, 88.89), (69.50, 77.78), (60.71, 67.86), (80.21, 79.17)],
    ):
        n = len(qt.participants)
        assert 100 * qt.pre_sum / (n * qt.points) == pytest.approx(pre, abs=0.005)
        assert 100 * qt.post_sum / (n * qt.points) == pytest.approx(post, abs=0.005)


def test_reconstruction_satisfies_discrete_constraints(reconstruction):
    stats = compute_table4(reconstruction.pairs)
    assert stats.total_pairs == 42
    assert stats.equal == 17
    assert stats.increase == 19
    assert stats.decrease == 6


def test_reconstruction_matches_per_quiz_means(reconstruction):
    stats = compute_table4(reconstruction.pairs)
    for q in range(1, 6):
        assert stats.quiz_pre_means[q] == pytest.approx(
            PAPER_TABLE4.quiz_pre_means[q], abs=0.01
        )
        assert stats.quiz_post_means[q] == pytest.approx(
            PAPER_TABLE4.quiz_post_means[q], abs=0.01
        )


def test_reconstruction_rel_changes_close(reconstruction):
    stats = compute_table4(reconstruction.pairs)
    assert abs(stats.mean_rel_increase - 47.86) < 0.15
    assert abs(stats.mean_rel_decrease - 27.30) < 0.15
    assert reconstruction.rel_increase_error < 0.15
    assert reconstruction.rel_decrease_error < 0.15


def test_monotone_students_never_decrease(reconstruction):
    for p in reconstruction.pairs:
        if p.student in {2, 5, 6, 8, 9, 10}:
            assert p.direction != "decrease", p


def test_decrease_students_each_decrease(reconstruction):
    decreased = {p.student for p in reconstruction.pairs if p.direction == "decrease"}
    assert decreased == {1, 3, 4, 7} or decreased <= {1, 3, 4, 7} and len(decreased) == 4


def test_scores_are_valid_percentages(reconstruction):
    for p in reconstruction.pairs:
        assert 0.0 <= p.pre <= 100.0
        assert 0.0 <= p.post <= 100.0


def test_scores_on_the_quiz_grid(reconstruction):
    from repro.edu.quiz import quiz

    for p in reconstruction.pairs:
        points = quiz(p.quiz).points
        for value in (p.pre, p.post):
            raw = value * points / 100.0
            assert abs(raw - round(raw)) < 1e-9, (p, raw)


def test_deterministic(reconstruction):
    again = reconstruct_cohort_scores()
    assert again.pairs == reconstruction.pairs


def test_infeasible_spec_is_rejected():
    """A contradictory aggregate spec must raise, not be approximated."""
    from dataclasses import replace

    from repro.edu.reconstruct import solve_reconstruction
    from repro.errors import ReconstructionError

    impossible = replace(PAPER_SPEC, equal=42, increase=42, decrease=42)
    with pytest.raises(ReconstructionError):
        solve_reconstruction(impossible, iterations=2_000)


def test_monotone_conflict_rejected():
    """Requiring a decrease from a student in the never-decrease set
    cannot be satisfied."""
    from dataclasses import replace

    from repro.edu.reconstruct import solve_reconstruction
    from repro.errors import ReconstructionError

    conflicted = replace(
        PAPER_SPEC,
        monotone_students=frozenset(range(1, 11)),  # nobody may decrease
        decrease=6,  # ...but six pairs must
        increase=19,
        equal=17,
    )
    with pytest.raises(ReconstructionError):
        solve_reconstruction(conflicted, iterations=2_000)


def test_reconstruction_is_pinned(reconstruction):
    """The exact scores and errors, recorded with the full-rescan
    annealer: the incremental energy and the inlined random draws
    reproduce its search step for step."""
    h = hashlib.sha256()
    for p in reconstruction.pairs:
        h.update(f"{p.student},{p.quiz},{p.pre.hex()},{p.post.hex()};".encode())
    h.update(
        f"{reconstruction.rel_increase_error.hex()},"
        f"{reconstruction.rel_decrease_error.hex()}".encode()
    )
    assert h.hexdigest() == (
        "8df14d69a1430eb7d9fd1fc7d6b546bbce44e7eaecf7cfc07cee9f2c7421037b"
    )


def _rescan_energy(state):
    """The energy by a full scan over all pairs, in index order."""
    spec = state.spec
    inc = dec = 0
    rel_inc_sum = rel_dec_sum = 0.0
    mono_viol = post_zero = 0
    decreased = set()
    for i in range(state.n):
        pre, post = state.pre[i], state.post[i]
        d = post - pre
        if d > 0:
            inc += 1
            if post == 0:
                post_zero += 1
            else:
                rel_inc_sum += d / post
        elif d < 0:
            dec += 1
            decreased.add(state.students[i])
            if state.monotone[i]:
                mono_viol += 1
            if post == 0:
                post_zero += 1
            else:
                rel_dec_sum += -d / post
    hard = (
        abs(inc - spec.increase)
        + abs(dec - spec.decrease)
        + abs(state.n - inc - dec - spec.equal)
        + 2 * mono_viol
        + 3 * post_zero
        + 2 * sum(1 for s in spec.must_decrease_students if s not in decreased)
    )
    soft = 0.0
    if inc:
        soft += abs(100.0 * rel_inc_sum / inc - spec.target_rel_increase)
    else:
        soft += spec.target_rel_increase
    if dec:
        soft += abs(100.0 * rel_dec_sum / dec - spec.target_rel_decrease)
    else:
        soft += spec.target_rel_decrease
    return float(hard), soft


def _bits(pair):
    return tuple(x.hex() for x in pair)


class _OracleState(_State):
    """The solver state with the per-move ``propose``/``commit`` API that
    preceded the fused annealing loop: every move scored in full."""

    def _score(self, inc, dec, penalty, missing, rel_inc_sum, rel_dec_sum):
        spec = self.spec
        hard = (
            abs(inc - spec.increase)
            + abs(dec - spec.decrease)
            + abs(self.n - inc - dec - spec.equal)
            + penalty
            + 2 * missing
        )
        soft = 0.0
        if inc:
            soft += abs(100.0 * rel_inc_sum / inc - spec.target_rel_increase)
        else:
            soft += spec.target_rel_increase
        if dec:
            soft += abs(100.0 * rel_dec_sum / dec - spec.target_rel_decrease)
        else:
            soft += spec.target_rel_decrease
        return float(hard), soft

    def propose(self, scores, i, j, step):
        pre, post, monotone = self.pre, self.post, self.monotone
        if scores is pre:
            new_i = _pair_terms(pre[i] + step, post[i], monotone[i])
            new_j = _pair_terms(pre[j] - step, post[j], monotone[j])
        else:
            new_i = _pair_terms(pre[i], post[i] + step, monotone[i])
            new_j = _pair_terms(pre[j], post[j] - step, monotone[j])
        old_i, old_j = self.terms[i], self.terms[j]
        inc = self.inc + new_i[0] + new_j[0] - old_i[0] - old_j[0]
        dec = self.dec + new_i[1] + new_j[1] - old_i[1] - old_j[1]
        penalty = self.penalty + new_i[2] + new_j[2] - old_i[2] - old_j[2]
        missing = self.missing
        for k, new, old in ((i, new_i, old_i), (j, new_j, old_j)):
            if new[1] != old[1] and self.dec_count.get(self.students[k]) == old[1]:
                missing += old[1] - new[1]
        inc_terms = self.inc_terms
        rel_inc_sum = self.rel_inc_sum
        if new_i[3] != inc_terms[i] or new_j[3] != inc_terms[j]:
            inc_terms = inc_terms.copy()
            inc_terms[i], inc_terms[j] = new_i[3], new_j[3]
            rel_inc_sum = _fold(inc_terms)
        dec_terms = self.dec_terms
        rel_dec_sum = self.rel_dec_sum
        if new_i[4] != dec_terms[i] or new_j[4] != dec_terms[j]:
            dec_terms = dec_terms.copy()
            dec_terms[i], dec_terms[j] = new_i[4], new_j[4]
            rel_dec_sum = _fold(dec_terms)
        self._pending = (
            scores, i, j, step, new_i, new_j, inc, dec, penalty, missing,
            inc_terms, dec_terms, rel_inc_sum, rel_dec_sum,
        )
        return self._score(inc, dec, penalty, missing, rel_inc_sum, rel_dec_sum)

    def commit(self):
        (scores, i, j, step, new_i, new_j, self.inc, self.dec, self.penalty,
         self.missing, self.inc_terms, self.dec_terms, self.rel_inc_sum,
         self.rel_dec_sum) = self._pending
        scores[i] += step
        scores[j] -= step
        for k, new in ((i, new_i), (j, new_j)):
            s = self.students[k]
            if s in self.dec_count:
                self.dec_count[s] += new[1] - self.terms[k][1]
            self.terms[k] = new


def _oracle_anneal(state, rng, iterations, *, soft_tolerance):
    """The annealing loop that scored every move in full before testing it."""
    import math
    import random

    py_rng = random.Random(int(rng.integers(0, 2**63 - 1)))
    getrandbits, uniform = py_rng.getrandbits, py_rng.random
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
    pre, post = state.pre, state.post
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
        arr = pre if uniform() < 0.5 else post
        r = getrandbits(step_bits)
        while r >= steps:
            r = getrandbits(step_bits)
        step = 1 + r
        if arr[i] + step > cap or arr[j] - step < 0:
            continue
        new_hard, new_soft = state.propose(arr, i, j, step)
        delta_e = (new_hard - hard) * 100.0 + (new_soft - soft)
        if delta_e <= 0 or uniform() < math.exp(-delta_e / temperature):
            state.commit()
            hard, soft = new_hard, new_soft
            if (hard, soft) < (best[2], best[3]):
                best = (pre.copy(), post.copy(), hard, soft)
                if hard == 0 and soft <= soft_tolerance:
                    break
        temperature *= cooling
    return best


def _best_bits(best):
    pre, post, hard, soft = best
    return pre, post, hard.hex(), soft.hex()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 5_000),
    soft_tolerance=st.sampled_from([0.05, 0.5, 0.0]),
)
def test_anneal_equals_full_scoring_oracle(seed, iterations, soft_tolerance):
    """The fused loop with its certain-reject shortcut finds the same
    best (pre, post, hard, soft), bit for bit, as scoring every move."""
    got = _anneal(
        _State(PAPER_SPEC, np.random.default_rng(seed)),
        np.random.default_rng([seed, 1]), iterations, soft_tolerance=soft_tolerance,
    )
    want = _oracle_anneal(
        _OracleState(PAPER_SPEC, np.random.default_rng(seed)),
        np.random.default_rng([seed, 1]), iterations, soft_tolerance=soft_tolerance,
    )
    assert _best_bits(got) == _best_bits(want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), iterations=st.integers(0, 5_000))
def test_incremental_energy_equals_full_rescan(seed, iterations):
    """The running totals ``_anneal`` writes back to the state are those
    of a full rescan of its final scores."""
    state = _State(PAPER_SPEC, np.random.default_rng(seed))
    assert _bits(state.energy()) == _bits(_rescan_energy(state))
    _anneal(state, np.random.default_rng([seed, 1]), iterations, soft_tolerance=0.05)
    assert _bits(state.energy()) == _bits(_rescan_energy(state))
    assert state.terms == [
        _pair_terms(a, b, m) for a, b, m in zip(state.pre, state.post, state.monotone)
    ]
