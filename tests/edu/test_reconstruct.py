"""Tests for the Figure 2 / Table IV cohort reconstruction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.edu import PAPER_TABLE4, compute_table4, reconstruct_cohort_scores
from repro.edu.reconstruct import PAPER_SPEC


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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), moves=st.integers(1, 400))
def test_incremental_energy_equals_full_rescan(seed, moves):
    from repro.edu.reconstruct import _State

    rng = np.random.default_rng(seed)
    state = _State(PAPER_SPEC, rng)
    assert _bits(state.energy()) == _bits(_rescan_energy(state))
    quizzes = list(state.quiz_slices.values())
    for _ in range(moves):
        ids = quizzes[rng.integers(len(quizzes))]
        i, j = rng.choice(ids, size=2, replace=False).tolist()
        scores = state.pre if rng.random() < 0.5 else state.post
        cap = state.points[i]
        step = int(rng.integers(1, cap + 1))
        if scores[i] + step > cap or scores[j] - step < 0:
            continue
        before = _bits(state.energy())
        proposed = state.propose(scores, i, j, step)
        assert _bits(state.energy()) == before  # nothing applied yet
        if rng.random() < 0.3:
            continue  # a rejected move
        state.commit()
        assert _bits(state.energy()) == _bits(proposed) == _bits(_rescan_energy(state))
