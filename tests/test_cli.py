"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in ("T1", "T4", "F1", "E8"):
        assert eid in out


def test_run_single(capsys):
    assert main(["run", "T3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "[PASS] T3" in out


def test_run_multiple(capsys):
    assert main(["run", "T1", "T3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] T1" in out and "[PASS] T3" in out


def test_run_unknown_id(capsys):
    assert main(["run", "T99"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown experiment 'T99'")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "E99"], 2),
        (["trace", "nosuch"], 2),
        (["trace", "ring", "-n", "0"], 2),
        (["faults", "nosuch"], 2),
        (["recover", "nosuch"], 2),
        (["sanitize", "nosuch"], 3),
        (["sanitize", "--pitfall", "nosuch"], 3),
    ],
)
def test_bad_input_is_a_one_line_usage_error(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, key",
    [
        (["trace", "ring", "-p", "bogus=1"], 2, "'bogus'"),
        (["trace", "kmeans", "-p", "k=abc"], 2, "'k'"),
        (["trace", "kmeans", "-p", "k=true"], 2, "'k'"),
        (["trace", "stencil", "-p", "overlap=1"], 2, "'overlap'"),
        (["sanitize", "kmeans", "-p", "k=abc"], 3, "'k'"),
        (["faults", "ring", "-p", "bogus=1"], 2, "'bogus'"),
        (["recover", "kmeans", "-p", "max_iter=2.5"], 2, "'max_iter'"),
    ],
)
def test_bad_param_is_a_one_line_error_naming_the_key(argv, code, key, capsys):
    """A -p key the workload does not take, or a value of the wrong type,
    is rejected before any world runs, naming the offending key."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert key in captured.err


def test_param_types_follow_the_defaults(capsys):
    """An int is accepted where the default is a float, and a parameter
    that defaults to None takes any JSON value."""
    assert main(
        ["trace", "resilient", "-n", "2",
         "-p", "n_terms=64", "-p", "shard_timeout=1"]
    ) == 0
    assert main(["trace", "ring", "-n", "2", "-p", "value=[1, 2]"]) == 0
    capsys.readouterr()


def test_bad_input_exit_code_from_the_command_line():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "nosuch"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown workload 'nosuch'")
    assert "Traceback" not in proc.stderr


def test_modules_catalog(capsys):
    assert main(["modules"]) == 0
    out = capsys.readouterr().out
    assert "Module 1: MPI Communication" in out
    assert "Module 5: k-means Clustering" in out
    assert "Module 6: Latency Hiding (extension)" in out
    assert "Module 7: Distributed Top-k Queries (extension)" in out


def test_quiz(capsys):
    assert main(["quiz"]) == 0
    out = capsys.readouterr().out
    assert "Program 2 / Compute Node 2" in out
    assert "Answer: (2)" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_trace_list(capsys):
    assert main(["trace", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("ring", "kmeans", "stencil"):
        assert name in out
    assert "module5" in out


def test_trace_requires_workload(capsys):
    assert main(["trace"]) == 2
    assert "required" in capsys.readouterr().err


def test_trace_run(capsys):
    assert main(["trace", "ring", "-n", "3", "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "workload 'ring' on 3 ranks" in out
    assert "rank   0" in out and "rank   2" in out  # timeline lanes
    assert "Per-rank breakdown" in out
    assert "Wait states" in out
    assert "Critical path" in out
    assert "load imbalance" in out


def test_trace_params_and_metrics(capsys):
    assert main(
        ["trace", "pingpong", "-p", "iterations=2", "-p", "nbytes=1024", "--metrics"]
    ) == 0
    out = capsys.readouterr().out
    assert "Metrics" in out
    assert "smpi.bytes_sent" in out


def test_trace_boolean_param(capsys):
    """-p values parse as JSON: overlap=false must not mean True."""
    assert main(
        ["trace", "stencil", "-n", "2",
         "-p", "n_local=256", "-p", "iterations=2", "-p", "overlap=false"]
    ) == 0
    blocking = capsys.readouterr().out
    assert main(
        ["trace", "stencil", "-n", "2",
         "-p", "n_local=256", "-p", "iterations=2", "-p", "overlap=true"]
    ) == 0
    overlapped = capsys.readouterr().out
    assert "MPI_Isend" in overlapped
    assert blocking != overlapped


def test_trace_bad_param(capsys):
    assert main(["trace", "ring", "-p", "oops"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_trace_export_json(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    target = tmp_path / "ring.json"
    assert main(["trace", "ring", "-n", "2", "--export-json", str(target)]) == 0
    assert "Chrome trace written to" in capsys.readouterr().out
    payload = json.loads(target.read_text())
    validate_chrome_trace(payload)
    assert any(e.get("ph") == "X" for e in payload["traceEvents"])


def test_run_json_output(capsys):
    import json

    assert main(["run", "T3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    record = payload["experiments"][0]
    assert record["id"] == "T3"
    assert record["passed"] is True
    assert all(record["checks"].values())


def test_sanitize_clean_workload(capsys):
    assert main(["sanitize", "sort", "-p", "n_per_rank=200"]) == 0
    out = capsys.readouterr().out
    assert "outcome:   clean" in out
    assert "race replay ran" in out


def test_sanitize_confirmed_race_exits_2(capsys):
    assert main(["sanitize", "--pitfall", "wildcard-race"]) == 2
    out = capsys.readouterr().out
    assert "message-race" in out
    assert "outcome:   errors" in out


def test_sanitize_warning_exits_1(capsys):
    assert main(["sanitize", "--pitfall", "unwaited-isend"]) == 1
    out = capsys.readouterr().out
    assert "request-leak" in out


def test_sanitize_no_replay_degrades(capsys):
    assert main(["sanitize", "--pitfall", "wildcard-race", "--no-replay"]) == 1
    out = capsys.readouterr().out
    assert "message-race-candidate" in out


def test_sanitize_corpus_sweep(capsys):
    assert main(["sanitize", "--pitfalls"]) == 0
    out = capsys.readouterr().out
    assert "14 pitfalls swept, 14 diagnosed as documented" in out


def test_sanitize_list(capsys):
    assert main(["sanitize", "--list"]) == 0
    out = capsys.readouterr().out
    assert "sort" in out and "wildcard-race" in out


def test_sanitize_requires_workload(capsys):
    assert main(["sanitize"]) == 3
    assert "WORKLOAD" in capsys.readouterr().err


def test_sanitize_bad_param(capsys):
    assert main(["sanitize", "ring", "-p", "oops"]) == 3
    assert "key=value" in capsys.readouterr().err


def test_sanitize_under_fault_plan(tmp_path, capsys):
    plan = tmp_path / "crash.toml"
    plan.write_text("[[crash]]\nrank = 2\non_nth_send = 1\n")
    assert main(
        ["sanitize", "resilient", "-p", "n_terms=1024", "--plan", str(plan)]
    ) == 0
    assert "outcome:   clean" in capsys.readouterr().out
