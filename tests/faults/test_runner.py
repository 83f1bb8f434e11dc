"""Outcome classification, trace canonicalisation, and the faults CLI."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.faults import FaultPlan, run_under_faults, trace_digest
from repro.faults.runner import OUTCOMES, canonical_trace
from repro.obs.workloads import run_workload
from repro.smpi.trace import TraceEvent


@dataclass
class _Ev:
    rank: int
    category: str
    primitive: str
    nbytes: int
    t_start: float
    t_end: float
    peer: int = -1
    cid: int = -1
    msg_id: int = -1


class TestCanonicalTrace:
    def test_msg_ids_remapped_by_first_appearance(self):
        """Two runs whose global msg counters started at different values
        canonicalise to the same bytes."""

        def events(base):
            return [
                _Ev(0, "p2p", "MPI_Send", 8, 0.0, 1.0, peer=1, msg_id=base),
                _Ev(1, "p2p", "MPI_Recv", 8, 0.0, 1.5, peer=0, msg_id=base),
            ]

        assert canonical_trace(events(17), 2) == canonical_trace(events(99), 2)

    def test_thread_interleaving_is_invisible(self):
        a = [
            _Ev(0, "compute", "compute", 0, 0.0, 1.0),
            _Ev(1, "compute", "compute", 0, 0.0, 2.0),
        ]
        assert canonical_trace(a, 2) == canonical_trace(list(reversed(a)), 2)

    def test_real_differences_change_the_digest(self):
        a = [_Ev(0, "compute", "compute", 0, 0.0, 1.0)]
        b = [_Ev(0, "compute", "compute", 0, 0.0, 2.0)]
        assert trace_digest(a, 1) != trace_digest(b, 1)


def _reference_canonical_trace(events, nprocs):
    """The original nested loop: one scan of the whole list per rank."""
    remap, lines = {}, []
    for rank in range(nprocs):
        for e in events:
            if e.rank != rank:
                continue
            if e.msg_id >= 0 and e.msg_id not in remap:
                remap[e.msg_id] = len(remap)
            mid = remap.get(e.msg_id, -1) if e.msg_id >= 0 else -1
            lines.append(
                (
                    f"{rank}|{e.category}|{e.primitive}|{e.nbytes}|"
                    f"{e.t_start:.12g}|{e.t_end:.12g}|{e.peer}|{e.cid}|{mid}"
                ).encode()
            )
    return b"\n".join(lines)


_events = st.lists(
    st.builds(
        TraceEvent,
        rank=st.integers(-1, 5),  # includes ranks outside range(nprocs)
        category=st.sampled_from(["compute", "p2p", "collective", "fault"]),
        primitive=st.sampled_from(["compute", "MPI_Send", "MPI_Recv", "MPI_Bcast"]),
        nbytes=st.integers(0, 1 << 20),
        t_start=st.floats(0.0, 10.0),
        t_end=st.floats(0.0, 10.0),
        peer=st.integers(-1, 5),
        cid=st.integers(-1, 3),
        msg_id=st.integers(-1, 12),
    ),
    max_size=60,
)


class TestCanonicalTraceOnePass:
    """The bucketed single pass is byte-identical to the nested loop."""

    @settings(max_examples=200, deadline=None)
    @given(events=_events, nprocs=st.integers(0, 5))
    def test_matches_nested_loop(self, events, nprocs):
        assert canonical_trace(events, nprocs) == _reference_canonical_trace(events, nprocs)

    def test_matches_nested_loop_on_a_faulted_32_rank_run(self):
        plan = FaultPlan(seed=11).drop(probability=0.2).delay(1e-4, probability=0.3)
        out = run_workload("randomcomm", nprocs=32, faults=plan, check=False)
        events = out.world.tracer.events
        assert any(e.category == "fault" for e in events)
        assert len({e.rank for e in events}) == 32
        assert canonical_trace(events, 32) == _reference_canonical_trace(events, 32)


class TestOutcomes:
    def test_survived_when_no_fault_fires(self):
        report = run_under_faults("ring", FaultPlan())
        assert report.outcome == "survived"
        assert report.error is None
        assert report.fault_events == {}
        assert report.result is not None

    def test_aborted_when_the_ring_loses_a_message(self):
        report = run_under_faults("ring", FaultPlan().drop(src=0, count=1))
        assert report.outcome == "aborted"
        assert report.error is not None
        assert report.fault_events.get("fault_drop", 0) >= 1
        assert report.result is None

    def test_degraded_when_faults_fire_but_the_job_finishes(self):
        plan = FaultPlan(seed=5).drop(src=2, dst=0).crash(rank=3, at_time=0.0)
        report = run_under_faults("resilient", plan)
        assert report.outcome == "degraded"
        assert report.crashed_ranks == (3,)
        assert report.fault_events.get("fault_crash") == 1
        assert report.result[0]["lost_ranks"] == [2, 3]

    def test_every_outcome_is_registered(self):
        assert OUTCOMES == ("survived", "degraded", "aborted")

    def test_report_lines_render(self):
        report = run_under_faults("pingpong", FaultPlan())
        text = "\n".join(report.lines())
        assert "outcome:   survived" in text
        assert "sha256:" in text


class TestDeterminism:
    """Same seed + same plan => byte-identical canonical traces."""

    PLAN = FaultPlan(seed=3).drop(probability=0.3).delay(1e-4, probability=0.5)

    def test_same_plan_same_digest(self):
        first = run_under_faults("randomcomm", self.PLAN)
        second = run_under_faults("randomcomm", self.PLAN)
        assert first.digest == second.digest
        assert first.fault_events == second.fault_events
        assert first.outcome == second.outcome

    def test_different_seed_different_faults(self):
        import dataclasses

        other = dataclasses.replace(self.PLAN, seed=4)
        a = run_under_faults("randomcomm", self.PLAN)
        b = run_under_faults("randomcomm", other)
        assert a.digest != b.digest


PLAN_TOML = """
seed = 5

[[drop]]
src = 2
dst = 0

[[crash]]
rank = 3
at_time = 0.0
"""


class TestCli:
    def test_list(self, capsys):
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        assert "resilient" in out and "ring" in out

    def test_missing_workload_is_an_error(self, capsys):
        assert main(["faults"]) == 2

    def test_bad_expect_value(self, capsys):
        assert main(["faults", "ring", "--expect", "fine"]) == 2

    def test_bad_param(self, capsys):
        assert main(["faults", "ring", "-p", "oops"]) == 2

    def test_empty_plan_survives(self, capsys):
        assert main(["faults", "ring", "--expect", "survived"]) == 0
        out = capsys.readouterr().out
        assert "empty plan" in out
        assert "outcome:   survived" in out

    def test_toml_plan_expected_degraded(self, tmp_path, capsys):
        plan = tmp_path / "plan.toml"
        plan.write_text(PLAN_TOML)
        argv = ["faults", "resilient", "--plan", str(plan), "--expect", "degraded"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "crash rank 3" in out
        assert "outcome:   degraded" in out

    def test_expect_mismatch_fails(self, tmp_path, capsys):
        plan = tmp_path / "plan.toml"
        plan.write_text(PLAN_TOML)
        argv = ["faults", "resilient", "--plan", str(plan), "--expect", "survived"]
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_seed_override_and_waits(self, capsys):
        argv = ["faults", "resilient", "--seed", "9", "--waits"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "seed=9" in out
        assert "Wait states" in out
