"""One rank runs at a time: runs depend only on the program.

The world hands a baton from rank to rank in a fixed order, message ids
are numbered per world and the ambient sanitizer is per thread, so the
same program gives the same trace, ids and report whether it runs once,
twice in a row or next to other worlds in the same process.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import smpi
from repro.__main__ import main
from repro.faults import FaultPlan
from repro.faults.runner import trace_digest
from repro.modules.module1_comm import random_communication_any_source
from repro.obs import (
    WORKLOADS,
    analyze_wait_states,
    critical_path,
    load_imbalance,
    render_critical_path,
    render_imbalance,
    render_rank_summary,
    render_wait_states,
    run_workload,
    to_chrome_trace,
)
from repro.sanitize import Sanitizer, capture
from repro.smpi.timeline import render_timeline

JOIN_TIMEOUT = 120.0


def _report(result) -> str:
    """What ``repro trace`` prints for a run, minus the header line."""
    tracer = result.tracer
    return "\n".join((
        render_timeline(tracer),
        render_rank_summary(tracer),
        render_wait_states(analyze_wait_states(tracer)),
        render_critical_path(critical_path(tracer)),
        render_imbalance(load_imbalance(tracer)),
    ))


def _faulted_randomcomm():
    plan = FaultPlan(seed=3).drop(probability=0.1).delay(2e-5, probability=0.3)
    return run_workload("randomcomm", nprocs=8, faults=plan, check=False)


_JOBS = {
    **{name: (lambda name=name: run_workload(name)) for name in WORKLOADS},
    "randomcomm+faults": _faulted_randomcomm,
}


def _fingerprint(job) -> tuple[str, str]:
    result = job()
    return trace_digest(result.tracer.events, result.world.nprocs), _report(result)


def test_same_program_twice_exports_the_same_chrome_trace():
    """Message ids, and so the flow ids, are numbered per world."""
    first = to_chrome_trace(run_workload("ring"))
    second = to_chrome_trace(run_workload("ring"))
    assert any(e["ph"] == "s" for e in first["traceEvents"])
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_any_source_receives_match_in_one_order():
    """An unsanitized wildcard program has one trace, run after run."""
    digests = set()
    for _ in range(20):
        out = smpi.launch(4, random_communication_any_source, 8, 0)
        digests.add(trace_digest(out.tracer.events, 4))
        assert out.world.wakeup_stats["missed"] == 0
    assert len(digests) == 1


def test_trace_kmeans_prints_the_same_text_twice(capsys):
    outputs = []
    for _ in range(2):
        assert main(["trace", "kmeans"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_capture_reaches_only_its_own_thread():
    """A world built in a thread outside ``capture`` has no sanitizer,
    even while another thread's captured world is running."""
    barrier = threading.Barrier(2, timeout=JOIN_TIMEOUT)
    seen = {}

    def body(comm):
        barrier.wait()  # both worlds exist and are running
        return comm.world.sanitizer

    def captured():
        with capture(Sanitizer()) as san:
            barrier.wait()  # the capture is active before either launch
            seen["captured"] = (smpi.run(1, body)[0], san)

    def plain():
        barrier.wait()
        seen["plain"] = smpi.run(1, body)[0]

    threads = [threading.Thread(target=captured), threading.Thread(target=plain)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
        assert not t.is_alive()
    sanitizer, san = seen["captured"]
    assert sanitizer is san
    assert seen["plain"] is None


def test_concurrent_worlds_match_their_serial_runs():
    serial = {name: _fingerprint(job) for name, job in _JOBS.items()}
    with ThreadPoolExecutor(max_workers=len(_JOBS)) as pool:
        futures = {name: pool.submit(_fingerprint, job) for name, job in _JOBS.items()}
        concurrent = {name: f.result(timeout=JOIN_TIMEOUT) for name, f in futures.items()}
    assert concurrent == serial
