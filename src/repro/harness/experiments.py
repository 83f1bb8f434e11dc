"""The experiment registry: one entry per paper artifact (DESIGN.md §4).

Each experiment regenerates its table/figure/claim on the simulated
substrate and returns an :class:`ExperimentReport` whose ``checks`` map
records whether each of the paper's qualitative claims held (who wins,
roughly by how much, where crossovers fall).  ``EXPERIMENTS`` is keyed
by artifact id: ``T1``-``T4``, ``F1``-``F2``, ``E1``-``E8``, the
extension modules ``E9``-``E10`` and the ablations ``A1``-``A3``.
``python -m repro all`` runs them all, and
``tests/harness/test_artifact_pins.py`` pins each report's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import smpi
from repro.cluster import ClusterSpec, Placement
from repro.errors import ValidationError
from repro.util.tables import TextTable


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment run."""

    experiment_id: str
    title: str
    text: str
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        failed = [k for k, v in self.checks.items() if not v]
        suffix = f" (failed: {', '.join(failed)})" if failed else ""
        return f"[{status}] {self.experiment_id}: {self.title}{suffix}"


@dataclass(frozen=True)
class Experiment:
    """Registry entry."""

    experiment_id: str
    title: str
    paper_claim: str
    run: Callable[[], ExperimentReport]


# ---------------------------------------------------------------- T1 ----


def _run_t1() -> ExperimentReport:
    from repro.modules import MODULES
    from repro.outcomes import LEARNING_OUTCOMES, outcomes_for_module, render_table1
    from repro.outcomes.bloom import BloomLevel

    checks = {
        "fifteen_outcomes": len(LEARNING_OUTCOMES) == 15,
        "module1_is_apply_only": all(
            lv is BloomLevel.APPLY
            for lo in outcomes_for_module(1)
            for m, lv in lo.levels.items()
            if m == 1
        ),
        "module5_reaches_create": any(
            lo.levels.get(5) is BloomLevel.CREATE for lo in LEARNING_OUTCOMES
        ),
        "every_module_targeted": all(
            len(outcomes_for_module(m.number)) >= 3 for m in MODULES
        ),
        "scaffolding_monotone": (
            # Later modules reach at least the abstraction of earlier ones.
            max(lo.levels[1].rank for lo in outcomes_for_module(1))
            <= max(lo.levels[5].rank for lo in outcomes_for_module(5))
        ),
    }
    return ExperimentReport("T1", "Learning-outcome matrix (Table I)", render_table1(), checks)


# ---------------------------------------------------------------- T2 ----


def _run_t2() -> ExperimentReport:
    from repro.outcomes import render_table2, verify_primitive_usage

    reports = verify_primitive_usage(nprocs=4)
    lines = [render_table2(), "", "Verification against the implementations:"]
    checks = {}
    for rep in reports:
        checks[f"module{rep.module}_required_primitives_used"] = rep.ok
        lines.append(
            f"  Module {rep.module}: required={sorted(rep.required) or '-'} "
            f"used_ok={rep.ok} optional_used={sorted(rep.optional_used) or '-'} "
            f"extras={sorted(rep.extras) or '-'}"
        )
    return ExperimentReport(
        "T2", "MPI-primitive matrix, verified live (Table II)", "\n".join(lines), checks
    )


# ---------------------------------------------------------------- T3 ----


def _run_t3() -> ExperimentReport:
    from repro.edu.cohort import COHORT, cs_background_count, render_table3

    checks = {
        "ten_students": len(COHORT) == 10,
        "three_cs_backgrounds": cs_background_count() == 3,
        "cs_fraction_30pct": abs(cs_background_count() / len(COHORT) - 0.30) < 1e-9,
        "five_inf_phd": sum(
            1 for s in COHORT if s.program.startswith("Informatics")
        ) == 5,
    }
    return ExperimentReport("T3", "Cohort demographics (Table III)", render_table3(), checks)


# ---------------------------------------------------------------- T4 ----


def _run_t4() -> ExperimentReport:
    from repro.edu import (
        PAPER_TABLE4,
        compute_table4,
        reconstruct_cohort_scores,
        render_table4_comparison,
    )

    rec = reconstruct_cohort_scores()
    stats = compute_table4(rec.pairs)
    mean_errs = [
        abs(stats.quiz_pre_means[q] - PAPER_TABLE4.quiz_pre_means[q])
        + abs(stats.quiz_post_means[q] - PAPER_TABLE4.quiz_post_means[q])
        for q in PAPER_TABLE4.quiz_pre_means
    ]
    checks = {
        "42_pairs": stats.total_pairs == 42,
        "17_equal": stats.equal == 17,
        "19_increase": stats.increase == 19,
        "6_decrease": stats.decrease == 6,
        "per_quiz_means_exact": max(mean_errs) < 0.01,
        "rel_increase_close": abs(stats.mean_rel_increase - 47.86) < 0.15,
        "rel_decrease_close": abs(stats.mean_rel_decrease - 27.30) < 0.15,
    }
    return ExperimentReport(
        "T4", "Quiz statistics from the reconstruction (Table IV)",
        render_table4_comparison(stats), checks,
    )


# ---------------------------------------------------------------- F1 ----


def _run_f1() -> ExperimentReport:
    from repro.edu import answer_figure1_question, figure1_speedup_curves
    from repro.edu.figures import render_figure1

    curves = figure1_speedup_curves()
    advice = answer_figure1_question(curves)
    (c1, s1) = curves["Program 1 / Compute Node 1"]
    (c2, s2) = curves["Program 2 / Compute Node 2"]
    checks = {
        "program1_plateaus": s1[-1] < 6.0,
        "program1_initially_scales": s1[2] > 2.0,
        "program2_near_linear": s2[-1] > 0.75 * c2[-1],
        "advisor_answers_program2_node2": advice.share_with
        == "Program 2 / Compute Node 2",
        "program1_classified_memory_bound": advice.classifications[
            "Program 1 / Compute Node 1"
        ]
        == "memory-bound",
    }
    text = render_figure1(curves) + "\n\nQuiz answer: " + advice.explanation
    return ExperimentReport(
        "F1", "Speedup curves + co-scheduling answer (Figure 1)", text, checks,
    )


# ---------------------------------------------------------------- F2 ----


def _run_f2() -> ExperimentReport:
    from repro.edu import reconstruct_cohort_scores
    from repro.edu.figures import render_figure2

    rec = reconstruct_cohort_scores()
    by_student: dict[int, list] = {}
    for p in rec.pairs:
        by_student.setdefault(p.student, []).append(p)
    monotone = {2, 5, 6, 8, 9, 10}
    checks = {
        "42_pairs": len(rec.pairs) == 42,
        "seven_students_complete": sum(
            1 for pairs in by_student.values() if len(pairs) == 5
        ) == 7,
        "monotone_students_never_decrease": all(
            p.direction != "decrease"
            for s in monotone
            for p in by_student.get(s, [])
        ),
        "others_each_decrease_once": all(
            any(p.direction == "decrease" for p in by_student[s])
            for s in (1, 3, 4, 7)
        ),
    }
    return ExperimentReport(
        "F2", "Per-student pre/post quiz scores (Figure 2)",
        render_figure2(rec.pairs), checks,
    )


# ---------------------------------------------------------------- E1 ----


def _run_e1() -> ExperimentReport:
    from repro.modules.module2_distance import (
        distributed_distance_matrix,
        measure_cache_misses,
        predicted_misses,
        tile_sweep_misses,
    )

    # Live cache simulation at teaching scale.
    n, dims, cache = 128, 90, 32 * 1024
    sim_row = measure_cache_misses(n, n, dims, tile=None, cache_bytes=cache)
    sim_tiled = measure_cache_misses(n, n, dims, tile=16, cache_bytes=cache)
    pred_row = predicted_misses(n, n, dims, tile=None, cache_bytes=cache)
    pred_tiled = predicted_misses(n, n, dims, tile=16, cache_bytes=cache)
    # Virtual-time effect at full scale.
    spec = ClusterSpec.monsoon_like(num_nodes=1)
    kw = dict(cluster=spec, placement=Placement.block(spec, 8))
    t_row = smpi.launch(8, distributed_distance_matrix, n=2048, dims=90, **kw).elapsed
    t_tiled = smpi.launch(
        8, distributed_distance_matrix, n=2048, dims=90, tile=128, **kw
    ).elapsed
    sweep = tile_sweep_misses(4096, 90, tiles=(None, 8, 128, 1024, 4096))

    table = TextTable(
        ["Traversal", "Sim misses", "Model misses", "Miss rate", "Virtual time (n=2048, p=8)"],
        title="E1: row-wise vs tiled distance matrix (Module 2)",
    )
    table.add_row(
        ["row-wise", sim_row.misses, pred_row, f"{sim_row.miss_rate:.3f}", f"{t_row:.5f} s"]
    )
    table.add_row(
        ["tiled(16/128)", sim_tiled.misses, pred_tiled, f"{sim_tiled.miss_rate:.3f}",
         f"{t_tiled:.5f} s"]
    )
    sweep_table = TextTable(["Tile", "Predicted misses (n=4096)"])
    for k, v in sweep.items():
        sweep_table.add_row([k, v])
    checks = {
        "tiled_fewer_misses": sim_tiled.misses < sim_row.misses / 3,
        "model_tracks_simulator": 0.4
        < sim_row.misses / pred_row
        < 2.5
        and 0.4 < sim_tiled.misses / pred_tiled < 2.5,
        "tiled_faster_in_time": t_tiled < t_row / 2,
        "oversized_tile_degrades": sweep["4096"] == sweep["row-wise"],
    }
    return ExperimentReport(
        "E1", "Tiling beats row-wise via cache locality",
        table.render() + "\n\n" + sweep_table.render(), checks,
    )


# ---------------------------------------------------------------- E2 ----


def _run_e2() -> ExperimentReport:
    from repro.harness.scaling import run_strong_scaling
    from repro.modules.module2_distance import distributed_distance_matrix

    spec = ClusterSpec.monsoon_like(num_nodes=1)
    p_list = (1, 2, 4, 8, 16, 32)
    tiled = run_strong_scaling(
        distributed_distance_matrix, p_list, cluster=spec, n=2048, dims=90, tile=128
    )
    row = run_strong_scaling(
        distributed_distance_matrix, p_list, cluster=spec, n=2048, dims=90, tile=None
    )
    table = TextTable(
        ["p", "tiled time", "tiled speedup", "row-wise time", "row-wise speedup"],
        title="E2: distance-matrix strong scaling (Module 2)",
    )
    for p in p_list:
        table.add_row(
            [p, f"{tiled.times[p]:.5f}", f"{tiled.speedup[p]:.2f}",
             f"{row.times[p]:.5f}", f"{row.speedup[p]:.2f}"]
        )
    checks = {
        "tiled_high_parallel_efficiency": tiled.efficiency[32] > 0.5,
        "rowwise_saturates": row.speedup[32] < 5.0,
        "tiled_scales_better": tiled.speedup[32] > 3 * row.speedup[32],
    }
    return ExperimentReport(
        "E2", "Compute-bound distance matrix scales near-linearly",
        table.render(), checks,
    )


# ---------------------------------------------------------------- E3 ----


def _run_e3() -> ExperimentReport:
    from repro.harness.scaling import run_strong_scaling
    from repro.modules.module3_sort import sort_activity

    spec = ClusterSpec.monsoon_like(num_nodes=1)
    runs = {}
    for label, dist, method in (
        ("uniform/equal", "uniform", "equal"),
        ("exponential/equal", "exponential", "equal"),
        ("exponential/histogram", "exponential", "histogram"),
    ):
        out = smpi.launch(
            8, sort_activity, n_per_rank=30_000, distribution=dist, method=method,
            seed=1, cluster=spec, placement=Placement.block(spec, 8),
        )
        runs[label] = (out.results[0].imbalance, out.elapsed)
    table = TextTable(
        ["Activity", "Load imbalance (max/mean)", "Virtual time"],
        title="E3: distribution sort across data distributions (Module 3)",
    )
    for label, (imb, t) in runs.items():
        table.add_row([label, f"{imb:.2f}", f"{t:.5f} s"])
    # Scaling comparison against Module 2: fixed per-rank data is a
    # *weak* scaling study — the memory-bound sort degrades as ranks
    # share node bandwidth, unlike Module 2's compute-bound kernel.
    from repro.harness.scaling import run_weak_scaling

    sort_weak = run_weak_scaling(
        sort_activity, (1, 8, 32), cluster=spec, n_per_rank=30_000,
        distribution="uniform", method="equal", seed=1,
    )
    checks = {
        "uniform_balanced": runs["uniform/equal"][0] < 1.15,
        "exponential_imbalanced": runs["exponential/equal"][0] > 2.0,
        "histogram_restores_balance": runs["exponential/histogram"][0] < 1.3,
        "histogram_faster_than_skewed": runs["exponential/histogram"][1]
        < runs["exponential/equal"][1],
        "sort_weak_scaling_degrades": sort_weak.efficiency[32] < 0.5,
    }
    effs = {p: round(float(e), 2) for p, e in sort_weak.efficiency.items()}
    note = (
        f"\nUniform sort weak scaling (30k values per rank): "
        f"efficiency {effs} — memory-bound work degrades as ranks share "
        f"node bandwidth"
    )
    return ExperimentReport(
        "E3", "Data skew breaks bucket sort; histogram splitters fix it",
        table.render() + note, checks,
    )


# ---------------------------------------------------------------- E4 ----


def _run_e4() -> ExperimentReport:
    from repro.harness.scaling import run_strong_scaling
    from repro.modules.module4_range import range_query_activity

    spec = ClusterSpec.monsoon_like(num_nodes=1)
    p_list = (1, 2, 4, 8, 16, 32)
    brute = run_strong_scaling(
        range_query_activity, p_list, cluster=spec, n=50_000, q=4096, algorithm="brute"
    )
    rtree = run_strong_scaling(
        range_query_activity, p_list, cluster=spec, n=50_000, q=4096, algorithm="rtree"
    )
    table = TextTable(
        ["p", "brute time", "brute speedup", "R-tree time", "R-tree speedup"],
        title="E4: range queries, brute force vs R-tree (Module 4)",
    )
    for p in p_list:
        table.add_row(
            [p, f"{brute.times[p]:.5f}", f"{brute.speedup[p]:.2f}",
             f"{rtree.times[p]:.5f}", f"{rtree.speedup[p]:.2f}"]
        )
    checks = {
        "rtree_faster_absolutely": rtree.times[32] < brute.times[32]
        and rtree.times[1] < brute.times[1],
        "brute_scales_better": brute.speedup[32] > 3 * rtree.speedup[32],
        "brute_near_linear": brute.efficiency[32] > 0.6,
        "rtree_saturates": rtree.max_speedup < 8,
    }
    return ExperimentReport(
        "E4", "Efficient algorithms scale worse: R-tree vs brute force",
        table.render(), checks,
    )


# ---------------------------------------------------------------- E5 ----


def _run_e5() -> ExperimentReport:
    from repro.harness.scaling import run_node_sweep
    from repro.modules.module4_range import range_query_activity

    spec = ClusterSpec.monsoon_like(num_nodes=4)
    rtree = run_node_sweep(
        range_query_activity, 16, (1, 2, 4), cluster=spec,
        n=50_000, q=4096, algorithm="rtree",
    )
    brute = run_node_sweep(
        range_query_activity, 16, (1, 2, 4), cluster=spec,
        n=50_000, q=4096, algorithm="brute",
    )
    table = TextTable(
        ["Nodes (p=16)", "R-tree time", "brute time"],
        title="E5: node allocation at fixed rank count (Module 4 activity 3)",
    )
    for nodes in (1, 2, 4):
        table.add_row([nodes, f"{rtree[nodes]:.5f}", f"{brute[nodes]:.5f}"])
    checks = {
        "two_nodes_beat_one_for_rtree": rtree[2] < rtree[1] / 1.5,
        "four_nodes_beat_two_for_rtree": rtree[4] <= rtree[2],
        "brute_indifferent_to_nodes": abs(brute[2] - brute[1]) < 0.3 * brute[1],
    }
    return ExperimentReport(
        "E5", "p ranks on 2 nodes beat p ranks on 1 node (memory bandwidth)",
        table.render(), checks,
    )


# ---------------------------------------------------------------- E6 ----


def _run_e6() -> ExperimentReport:
    from repro.modules.module5_kmeans import (
        communication_volume_per_iteration,
        kmeans_distributed,
    )

    spec = ClusterSpec.monsoon_like(num_nodes=2)
    ks = (2, 8, 32, 128)
    rows = []
    fractions = {}
    for k in ks:
        # The k-sweep runs on two nodes — the configuration the module's
        # open question ("is multi-node worth it?") is asked about.
        out = smpi.launch(
            16, kmeans_distributed, n=16_000, k=k, method="weighted", seed=3,
            max_iter=6, tol=-1.0,
            cluster=spec, placement=Placement.spread(spec, 16, nodes=2),
        )
        r = out.results[0]
        fractions[k] = r.comm_fraction
        rows.append((k, r.compute_time, r.comm_time, r.comm_fraction))
    table = TextTable(
        ["k", "compute time", "comm time", "comm fraction"],
        title="E6: k-means compute/communication balance vs k (Module 5)",
    )
    for k, tc, tm, f in rows:
        table.add_row([k, f"{tc:.6f}", f"{tm:.6f}", f"{f:.3f}"])
    # Multi-node comparison at low and high k.
    def elapsed(k, nodes):
        return smpi.launch(
            16, kmeans_distributed, n=16_000, k=k, method="weighted", seed=3,
            max_iter=6, tol=-1.0,
            cluster=spec, placement=Placement.spread(spec, 16, nodes=nodes),
        ).elapsed

    low_one, low_two = elapsed(2, 1), elapsed(2, 2)
    high_one, high_two = elapsed(128, 1), elapsed(128, 2)
    vol_w = communication_volume_per_iteration(16_000, 16, 8, 2, "weighted")
    vol_e = communication_volume_per_iteration(16_000, 16, 8, 2, "explicit")
    note = (
        f"\nk=2:   1 node {low_one:.6f} s vs 2 nodes {low_two:.6f} s"
        f"\nk=128: 1 node {high_one:.6f} s vs 2 nodes {high_two:.6f} s"
        f"\nper-iteration volume (k=8): weighted {vol_w:.0f} B vs explicit {vol_e:.0f} B"
    )
    checks = {
        "low_k_comm_dominated": fractions[2] > 0.5,
        "high_k_compute_dominated": fractions[128] < 0.35,
        # At very low k both phases are latency/bandwidth bound, so the
        # fraction is allowed to be flat there; it must fall with k.
        "fraction_monotone_decreasing": all(
            fractions[a] >= fractions[b] - 0.05 for a, b in zip(ks, ks[1:])
        ) and fractions[2] > fractions[128],
        "multi_node_not_advantageous_at_low_k": low_two >= low_one,
        "weighted_volume_far_smaller": vol_e > 30 * vol_w,
    }
    return ExperimentReport(
        "E6", "k-means flips from communication- to compute-bound with k",
        table.render() + note, checks,
    )


# ---------------------------------------------------------------- E7 ----


def _run_e7() -> ExperimentReport:
    from repro.modules import module1

    small = module1.demonstrate_ring_deadlock(8, payload_nbytes=64)
    large = module1.demonstrate_ring_deadlock(8, payload_nbytes=1_000_000)
    fixed = smpi.run(8, module1.ring_odd_even, 1_000_000)
    two_phase = smpi.launch(6, module1.random_communication_two_phase, 6, 11)
    any_source = smpi.launch(6, module1.random_communication_any_source, 6, 11)
    table = TextTable(
        ["Scenario", "Outcome"],
        title="E7: blocking-send semantics and random communication (Module 1)",
    )
    table.add_row(["ring of blocking sends, 64 B (eager)", "completed"])
    table.add_row(["ring of blocking sends, 1 MB (rendezvous)",
                   "DEADLOCK detected" if large.deadlocked else "completed?!"])
    table.add_row(["odd/even ordered ring, 1 MB", "completed"])
    table.add_row(
        ["random comm: two-phase vs ANY_SOURCE payload totals",
         f"{sum(two_phase.results):.0f} == {sum(any_source.results):.0f}"]
    )
    msgs_two = two_phase.tracer.summary().messages_sent
    msgs_any = any_source.tracer.summary().messages_sent
    table.add_row(
        ["messages sent (two-phase vs ANY_SOURCE)", f"{msgs_two} vs {msgs_any}"]
    )
    checks = {
        "eager_ring_completes": not small.deadlocked,
        "rendezvous_ring_deadlocks": large.deadlocked,
        "odd_even_fix_works": fixed == [float((r - 1) % 8) for r in range(8)],
        "variants_agree": abs(sum(two_phase.results) - sum(any_source.results)) < 1e-9,
    }
    return ExperimentReport(
        "E7", "Deadlock is message-size dependent; ANY_SOURCE simplifies code",
        table.render(), checks,
    )


# ---------------------------------------------------------------- E8 ----


def _run_e8() -> ExperimentReport:
    from repro.slurm import JobSpec, Scheduler, WorkloadProfile

    def pair_elapsed(demand_a: float, demand_b: float) -> float:
        sched = Scheduler(num_nodes=1, cores_per_node=32)
        a = sched.submit(
            JobSpec("a", WorkloadProfile(base_runtime=100.0, mem_demand=demand_a),
                    ntasks=16)
        )
        sched.submit(
            JobSpec("b", WorkloadProfile(base_runtime=100.0, mem_demand=demand_b),
                    ntasks=16)
        )
        sched.run()
        return sched.record(a).elapsed

    twins = pair_elapsed(0.9, 0.9)
    mixed = pair_elapsed(0.9, 0.1)
    compute_pair = pair_elapsed(0.1, 0.1)
    table = TextTable(
        ["Co-scheduled pair", "Job A elapsed (base 100 s)"],
        title="E8: 'terrible twins' co-scheduling interference",
    )
    table.add_row(["memory-bound + memory-bound (twins)", f"{twins:.1f}"])
    table.add_row(["memory-bound + compute-bound", f"{mixed:.1f}"])
    table.add_row(["compute-bound + compute-bound", f"{compute_pair:.1f}"])
    checks = {
        "twins_degrade_severely": twins > 150.0,
        "mixed_pairing_harmless": mixed < 105.0,
        "compute_pair_harmless": compute_pair < 105.0,
    }
    return ExperimentReport(
        "E8", "Identical memory-bound jobs degrade each other; mixed pairs don't",
        table.render(), checks,
    )


# ---------------------------------------------------------------- E9 ----


def _run_e9() -> ExperimentReport:
    from repro.modules.module6_overlap import overlap_benefit

    spec = ClusterSpec.monsoon_like(num_nodes=4)
    place = Placement.spread(spec, 8, nodes=4)
    rows = []
    for n_local in (5_000, 20_000, 100_000):
        res = overlap_benefit(
            8, n_local=n_local, iterations=10, halo=1024,
            cluster=spec, placement=place,
        )
        rows.append((n_local, res["blocking"], res["overlapped"], res["speedup"]))
    table = TextTable(
        ["n_local", "blocking", "overlapped", "speedup"],
        title="E9 (extension): latency hiding via overlapped halo exchange",
    )
    for n_local, tb, to, sp in rows:
        table.add_row([n_local, f"{tb:.6f}", f"{to:.6f}", f"{sp:.2f}"])
    checks = {
        "overlap_always_at_least_as_fast": all(sp >= 0.99 for *_, sp in rows),
        "small_interior_wins_by_concurrency": rows[0][3] > 1.5,
        "large_interior_fully_hides_comm": rows[-1][3] > 1.05,
    }
    return ExperimentReport(
        "E9", "Overlapped halo exchange hides communication",
        table.render(), checks,
    )


# ---------------------------------------------------------------- E10 ----


def _run_e10() -> ExperimentReport:
    from repro.modules.module7_topk import reference_topk, topk_activity

    p, n, k, seed = 8, 20_000, 32, 4
    rows = []
    checks = {}
    for dist in ("uniform", "lognormal", "rank_skewed"):
        gather = smpi.launch(
            p, topk_activity, n_per_rank=n, k=k, distribution=dist,
            strategy="gather", seed=seed,
        )
        threshold = smpi.launch(
            p, topk_activity, n_per_rank=n, k=k, distribution=dist,
            strategy="threshold", seed=seed,
        )
        sent_g = sum(r.candidates_sent for r in gather.results)
        sent_t = sum(r.candidates_sent for r in threshold.results)
        expected = reference_topk(p, n, k, dist, seed)
        correct = bool(
            np.allclose(gather.results[0].topk, expected)
            and np.allclose(threshold.results[0].topk, expected)
        )
        checks[f"{dist}_correct"] = correct
        rows.append((dist, sent_g, sent_t))
    table = TextTable(
        ["Distribution", "gather candidates sent", "threshold candidates sent"],
        title="E10 (extension): distributed top-k, gather vs threshold pruning",
    )
    for dist, sg, st_ in rows:
        table.add_row([dist, sg, st_])
    by_dist = {d: st_ for d, _, st_ in rows}
    checks["gather_volume_fixed_at_pk"] = all(sg == p * k for _, sg, _ in rows)
    checks["threshold_prunes"] = all(st_ < sg for _, sg, st_ in rows)
    checks["skew_collapses_to_k"] = by_dist["rank_skewed"] == k
    return ExperimentReport(
        "E10", "Top-k threshold pruning: communication is data-dependent",
        table.render(), checks,
    )


# ---------------------------------------------------------------- A1 ----


def _run_a1() -> ExperimentReport:
    """Ablation: the eager/rendezvous threshold.

    The deadlock demonstration (E7) hinges on the protocol switch; this
    ablation shows the boundary *moves with the configured threshold* —
    i.e. the behaviour is the protocol's, not an artifact of one size.
    """
    from repro.cluster import NetworkSpec, NodeSpec
    from repro.modules.module1_comm import demonstrate_ring_deadlock

    rows = []
    checks = {}
    for threshold in (256, 4096, 65536):
        spec = ClusterSpec(
            num_nodes=1,
            node=NodeSpec(cores=8),
            network=NetworkSpec(eager_threshold=threshold),
        )
        below = demonstrate_ring_deadlock(
            4, payload_nbytes=threshold // 2, cluster=spec
        )
        above = demonstrate_ring_deadlock(
            4, payload_nbytes=threshold * 2, cluster=spec
        )
        rows.append((threshold, below.deadlocked, above.deadlocked))
        checks[f"threshold_{threshold}_boundary_correct"] = (
            not below.deadlocked and above.deadlocked
        )
    table = TextTable(
        ["eager_threshold (B)", "ring @ T/2 deadlocks?", "ring @ 2T deadlocks?"],
        title="A1 (ablation): the deadlock boundary tracks the eager threshold",
    )
    for threshold, below_dead, above_dead in rows:
        table.add_row([threshold, below_dead, above_dead])
    return ExperimentReport(
        "A1", "Eager-threshold ablation: protocol, not magic numbers",
        table.render(), checks,
    )


# ---------------------------------------------------------------- A2 ----


def _run_a2() -> ExperimentReport:
    """Ablation: per-core bandwidth saturation.

    The Figure 1a plateau height equals the node's saturation point
    (node bandwidth / core bandwidth).  Without the core-level cap
    (``core = node``) a memory-bound program would show *no* speedup at
    all — visibly wrong against the paper's Figure 1a, which rises
    before flattening.  This ablation justifies the model choice.
    """
    from repro.cluster import NodeSpec

    rows = []
    for fraction in (1.0, 0.25, 0.125):
        node = NodeSpec(cores=32, core_mem_bandwidth=8.0e10 * fraction)
        spec = ClusterSpec(num_nodes=1, node=node)

        def stream(comm):
            comm.compute(nbytes=4.0e10 / comm.size)
            comm.barrier()

        times = {}
        for p in (1, 4, 8, 20):
            times[p] = smpi.launch(
                p, stream, cluster=spec, placement=Placement.block(spec, p)
            ).elapsed
        speedup20 = times[1] / times[20]
        rows.append((fraction, speedup20))
    table = TextTable(
        ["core bw / node bw", "memory-bound speedup at 20 cores"],
        title="A2 (ablation): saturation cap sets the Figure 1a plateau",
    )
    for fraction, sp in rows:
        table.add_row([fraction, f"{sp:.2f}"])
    by_fraction = dict(rows)
    checks = {
        "no_cap_means_no_speedup": by_fraction[1.0] < 1.2,
        "quarter_cap_plateaus_near_4": 3.0 < by_fraction[0.25] < 5.0,
        "eighth_cap_plateaus_near_8": 6.0 < by_fraction[0.125] < 10.0,
    }
    return ExperimentReport(
        "A2", "Core-bandwidth saturation ablation",
        table.render(), checks,
    )


# ---------------------------------------------------------------- A3 ----


def _run_a3() -> ExperimentReport:
    """Ablation: collective cost algorithms.

    Broadcast is charged as a binomial tree (cost ~ log2 p) while
    scatter is charged linear-from-root (cost ~ p): the root must inject
    p distinct pieces, so no tree helps its bottleneck.  The sweep shows
    both growth shapes, which is the reasoning the modules ask for in
    "reason about performance based on communication patterns".
    """
    spec = ClusterSpec.monsoon_like(num_nodes=1)
    payload = np.zeros(128)

    def bcaster(comm):
        comm.bcast(payload if comm.rank == 0 else None, root=0)
        return comm.wtime()

    def scatterer(comm):
        pieces = [payload] * comm.size if comm.rank == 0 else None
        comm.scatter(pieces, root=0)
        return comm.wtime()

    rows = []
    for p in (2, 8, 32):
        tb = smpi.launch(p, bcaster, cluster=spec,
                         placement=Placement.block(spec, p)).elapsed
        ts = smpi.launch(p, scatterer, cluster=spec,
                         placement=Placement.block(spec, p)).elapsed
        rows.append((p, tb, ts))
    table = TextTable(
        ["p", "bcast (tree)", "scatter (linear root)"],
        title="A3 (ablation): collective algorithm costs (same 1 KiB payload/rank)",
    )
    for p, tb, ts in rows:
        table.add_row([p, f"{tb * 1e6:.2f} us", f"{ts * 1e6:.2f} us"])
    t2 = {p: (tb, ts) for p, tb, ts in rows}
    bcast_growth = t2[32][0] / t2[2][0]
    scatter_growth = t2[32][1] / t2[2][1]
    checks = {
        "bcast_grows_logarithmically": bcast_growth < 8.0,
        "scatter_grows_linearly": scatter_growth > 12.0,
        "scatter_root_bottleneck_at_scale": t2[32][1] > t2[32][0],
    }
    return ExperimentReport(
        "A3", "Tree vs linear collective cost shapes",
        table.render(), checks,
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.experiment_id: e
    for e in (
        Experiment("T1", "Table I: learning outcomes",
                   "15 outcomes across 5 modules with Bloom scaffolding", _run_t1),
        Experiment("T2", "Table II: MPI primitives",
                   "each module's required primitives are exercised", _run_t2),
        Experiment("T3", "Table III: demographics",
                   "10 students, only 30% with a CS background", _run_t3),
        Experiment("T4", "Table IV: quiz statistics",
                   "42 pairs: 17 equal / 19 up / 6 down; +47.86% / -27.30%", _run_t4),
        Experiment("F1", "Figure 1: speedup curves + quiz answer",
                   "memory-bound plateaus, compute-bound scales; share node 2", _run_f1),
        Experiment("F2", "Figure 2: per-student pre/post scores",
                   "reconstruction consistent with all published aggregates", _run_f2),
        Experiment("E1", "Module 2: tiling vs row-wise",
                   "tiling cuts cache misses and simulated runtime", _run_e1),
        Experiment("E2", "Module 2: strong scaling",
                   "the tiled distance matrix is compute-bound and scales", _run_e2),
        Experiment("E3", "Module 3: load imbalance",
                   "exponential data skews buckets; histogram splitters fix it", _run_e3),
        Experiment("E4", "Module 4: brute force vs R-tree",
                   "the R-tree is faster but scales worse", _run_e4),
        Experiment("E5", "Module 4: node allocation",
                   "p ranks on 2 nodes beat p ranks on 1 node", _run_e5),
        Experiment("E6", "Module 5: k sweep",
                   "low k communication-bound, high k compute-bound", _run_e6),
        Experiment("E7", "Module 1: deadlock & random communication",
                   "blocking ring deadlocks at rendezvous sizes", _run_e7),
        Experiment("E8", "Ancillary: co-scheduling interference",
                   "terrible twins degrade; mixed pairings are harmless", _run_e8),
        Experiment("E9", "Extension module 6: latency hiding",
                   "overlapped halo exchange hides communication", _run_e9),
        Experiment("E10", "Extension module 7: distributed top-k",
                   "threshold pruning's volume is data-dependent", _run_e10),
        Experiment("A1", "Ablation: eager threshold",
                   "the deadlock boundary tracks the protocol switch", _run_a1),
        Experiment("A2", "Ablation: bandwidth saturation",
                   "the core-level cap sets the Figure 1a plateau", _run_a2),
        Experiment("A3", "Ablation: collective algorithms",
                   "tree bcast ~log p, linear scatter ~p", _run_a3),
    )
}


def run_experiment(experiment_id: str) -> ExperimentReport:
    """Run one registered experiment by id."""
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise ValidationError(
            f"unknown experiment {experiment_id!r}; valid: {sorted(EXPERIMENTS)}"
        ) from exc
    return experiment.run()
