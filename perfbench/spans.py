"""Outside-in span tracing of the repro layers, for the traced benchmark run.

:func:`instrument` wraps the public entry points of each ``repro`` layer
from here, so the program's code is not modified.  Every call records a
span ``(id, parent, name, start_ns, end_ns, thread, op)`` in memory; a
span's parent is the innermost open span on the same thread, except a
rank function's, whose parent is the :func:`launch` that started it on
the main thread.

:func:`fold` turns the spans into per-layer self times (a span's
duration minus its same-thread children) and checks closure: the self
times must sum to exactly the time the top-level spans cover, which
holds only if every child lies inside its parent.
"""

from __future__ import annotations

import functools
import gc
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns, thread_time_ns
from typing import Any, Callable, Optional

#: span names whose self time is not a layer's: the workload's own code
#: (the iteration driver on the main thread, rank function bodies).
UNATTRIBUTED = ("iteration", "rank")
#: counts recorded by ``after`` hooks rather than by span calls.
EXTRA_COUNTS = (
    "sanitize.replays", "recovery.checkpoint_bytes", "recovery.rollbacks",
    "spatial.queries", "spatial.nodes_visited", "spatial.entries_checked",
    "cluster.cache_sim.lines",
)


class Recorder:
    """Keeps spans, extra counts and GC pauses for one traced iteration.

    Each span is tagged with ``op_source.op``, the operation running when
    it ended (the workload names its operations as it goes).
    """

    def __init__(self, op_source: Any = None) -> None:
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0.0)
        self.op = ""
        self.op_source = self if op_source is None else op_source
        self.gc_pause_ns = 0
        self.gc_collections = 0
        #: (name, thread CPU ns) of spans wrapped with ``cpu=True``.
        self.cpu_spans: list[tuple[str, int]] = []
        self._gc_start = 0
        self._ids = itertools.count(1)
        self._threads = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        # Thread idents are reused once a thread ends, so every thread
        # gets its own serial number on first use instead.
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.serial = next(self._threads)
            return local.stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        parent: Optional[int] = None,
        after: Optional[Callable[..., None]] = None,
        cpu: bool = False,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``parent`` links a thread's outermost span to a span of another
        thread; ``after(result, *args, **kwargs)`` adds counts; ``cpu``
        also records the CPU time the calling thread used in the span.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = rec._stack()
            sid = next(rec._ids)
            up = stack[-1] if stack else (parent or 0)
            stack.append(sid)
            c0 = thread_time_ns() if cpu else 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                if cpu:
                    rec.cpu_spans.append((name, thread_time_ns() - c0))
                stack.pop()
                rec.spans.append(
                    (sid, up, name, t0, t1, rec._local.serial, rec.op_source.op)
                )

        return traced

    def current(self) -> int:
        """Id of the innermost open span on this thread (0 if none)."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1


class _TimedLock:
    """Stands in for ``World.lock``: each ``with world.lock`` times its
    acquire as a span.  The per-rank conditions keep the real lock, so
    parking and waking are unchanged."""

    def __init__(self, lock: Any, acquire: Callable) -> None:
        self.acquire = acquire
        self.release = lock.release
        self.locked = lock.locked

    def __enter__(self) -> "_TimedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


def _patch_function(module: Any, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
    """Replace ``module.attr`` and every ``from module import attr`` copy
    already bound in a loaded ``repro`` module."""
    original = getattr(module, attr)
    traced = wrapper_of(original)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _patch_methods(rec: Recorder, name: str, cls: type, methods: tuple[str, ...], **kw: Any) -> None:
    for meth in methods:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(rec.wrap(name, raw.__func__, **kw)))
        else:
            setattr(cls, meth, rec.wrap(name, raw, **kw))


def instrument(rec: Recorder) -> None:
    """Wrap every layer's entry points so calls record spans in ``rec``."""
    import repro.cluster.memory as memory
    import repro.edu.reconstruct as reconstruct
    import repro.harness.kernels as kernels
    import repro.obs.analysis as analysis
    import repro.obs.chrome_trace as chrome_trace
    import repro.obs.metrics as metrics
    import repro.sanitize.runner as sanitize_runner
    import repro.smpi.runtime as runtime
    from repro.faults.injector import FaultInjector
    from repro.recovery.checkpoint import CheckpointStore
    from repro.sanitize.sanitizer import Sanitizer
    from repro.smpi.communicator import Comm
    from repro.smpi.message import MatchingQueues
    from repro.smpi.trace import Tracer
    from repro.spatial import BruteForceIndex, KDTree, QuadTree, QueryStats, RTree

    def traced_launch(launch: Callable) -> Callable:
        def launch_with_rank_spans(nprocs: int, fn: Callable, *args: Any, **kwargs: Any) -> Any:
            rank_fn = rec.wrap("rank", fn, parent=rec.current(), cpu=True)
            return launch(nprocs, rank_fn, *args, **kwargs)

        return rec.wrap("smpi.runtime.launch", launch_with_rank_spans)

    _patch_function(runtime, "launch", traced_launch)
    init_world = runtime.World.__init__

    def init_world_with_timed_lock(world: Any, *args: Any, **kwargs: Any) -> None:
        init_world(world, *args, **kwargs)
        world.lock = _TimedLock(world.lock, rec.wrap("smpi.runtime.lock", world.lock.acquire, cpu=True))

    runtime.World.__init__ = init_world_with_timed_lock
    _patch_methods(rec, "smpi.runtime.block", runtime.World, ("block",), cpu=True)
    _patch_methods(
        rec, "smpi.runtime.world", runtime.World,
        ("deliver_locked", "finish_rank", "crash_rank", "abort", "revoke_cid",
         "new_comm_cid", "split_cid", "publish_runtime_counters"),
    )
    _patch_methods(
        rec, "smpi.communicator", Comm,
        ("send", "ssend", "bsend", "isend", "recv", "irecv", "probe", "iprobe",
         "sendrecv", "sendrecv_replace", "_wait_request", "_test_request"),
    )
    _patch_methods(rec, "smpi.collectives", Comm, ("_collective",))
    _patch_methods(
        rec, "smpi.message", MatchingQueues,
        ("match_arriving", "post", "cancel", "take_unexpected", "remove_unexpected",
         "first_matching_per_source", "peek_unexpected", "requeue", "purge_cid"),
    )
    _patch_methods(rec, "smpi.trace", Tracer, ("record",))
    _patch_methods(rec, "obs.metrics", metrics.MetricsRegistry, ("_get",))
    _patch_methods(rec, "obs.metrics", metrics.Counter, ("inc",))
    _patch_methods(rec, "obs.metrics", metrics.Gauge, ("set", "add"))
    _patch_methods(rec, "obs.metrics", metrics.Histogram, ("observe",))
    for module, names in (
        (analysis, ("match_messages", "analyze_wait_states", "critical_path", "load_imbalance")),
        (chrome_trace, ("to_chrome_trace", "export_chrome_trace", "validate_chrome_trace")),
    ):
        for attr in names:
            _patch_function(module, attr, functools.partial(rec.wrap, "obs.analysis"))
    _patch_methods(
        rec, "faults.injector", FaultInjector, ("maybe_crash", "on_send", "finalize_send")
    )
    _patch_methods(
        rec, "sanitize.hook", Sanitizer,
        ("on_world_start", "on_world_finish", "on_request", "on_request_done",
         "on_collective", "on_wildcard_match", "on_comm_created", "on_comm_freed",
         "on_deadlock"),
    )

    def count_replay(result: Any, invoke: Any, match_order: str) -> None:
        if match_order == "last":
            rec.counts["sanitize.replays"] += 1

    _patch_function(
        sanitize_runner, "_observe",
        lambda fn: rec.wrap("sanitize.runner", fn, after=count_replay),
    )

    def count_checkpoint(cp: Any, *args: Any, **kwargs: Any) -> None:
        rec.counts["recovery.checkpoint_bytes"] += cp.nbytes

    def count_rollback(*args: Any, **kwargs: Any) -> None:
        rec.counts["recovery.rollbacks"] += 1

    _patch_methods(rec, "recovery.checkpoint", CheckpointStore, ("save",), after=count_checkpoint)
    _patch_methods(rec, "recovery.checkpoint", CheckpointStore, ("load",))
    _patch_methods(rec, "recovery.checkpoint", CheckpointStore, ("rollback",), after=count_rollback)
    for attr in ("pairwise_block", "kmeans_assign", "kmeans_update", "centroid_step", "histogram_cuts"):
        _patch_function(kernels, attr, functools.partial(rec.wrap, "harness.kernels"))

    def counting_query(query: Callable) -> Callable:
        # Count each query's work on a private QueryStats, then add it to
        # the caller's, which may already hold earlier queries' counts.
        def query_range(index: Any, rect: Any, stats: Any = None) -> Any:
            own = QueryStats()
            found = query(index, rect, own)
            rec.counts["spatial.queries"] += 1
            rec.counts["spatial.nodes_visited"] += own.nodes_visited
            rec.counts["spatial.entries_checked"] += own.entries_checked
            if stats is not None:
                stats.add(own)
            return found

        return query_range

    for cls in (BruteForceIndex, KDTree, QuadTree, RTree):
        cls.query_range = rec.wrap("spatial.query", counting_query(cls.__dict__["query_range"]))
    _patch_methods(rec, "spatial.build", BruteForceIndex, ("__init__",))
    _patch_methods(rec, "spatial.build", KDTree, ("__init__",))
    _patch_methods(rec, "spatial.build", QuadTree, ("from_points",))
    _patch_methods(rec, "spatial.build", RTree, ("bulk_load",))
    for attr in ("_anneal", "solve_reconstruction"):
        _patch_function(reconstruct, attr, functools.partial(rec.wrap, "edu.reconstruct"))

    def count_lines(result: Any, sim: Any, lines: Any) -> None:
        rec.counts["cluster.cache_sim.lines"] += len(lines)

    _patch_methods(rec, "cluster.cache_sim", memory.CacheSim, ("access_lines",), after=count_lines)
    gc.callbacks.append(rec.on_gc)


#: span name -> (self-time metric, call-count metric or None).
LAYERS = {
    "smpi.runtime.block": ("smpi.runtime.block_wait_s", "smpi.runtime.blocks"),
    "smpi.runtime.world": ("smpi.runtime.world_s", "smpi.runtime.world.calls"),
    "smpi.runtime.lock": ("smpi.runtime.lock_wait_s", "smpi.runtime.lock_acquires"),
    "smpi.communicator": ("smpi.communicator.self_s", "smpi.communicator.calls"),
    "smpi.message": ("smpi.message.match_s", "smpi.message.calls"),
    "smpi.collectives": ("smpi.collectives.self_s", "smpi.collectives.calls"),
    "smpi.trace": ("smpi.trace.record_s", "smpi.trace.events"),
    "obs.metrics": ("obs.metrics.self_s", "obs.metrics.calls"),
    "obs.analysis": ("obs.analysis.s", "obs.analysis.calls"),
    "faults.injector": ("faults.injector_s", "faults.injector.calls"),
    "sanitize.hook": ("sanitize.hook_s", "sanitize.hook.calls"),
    "sanitize.runner": ("sanitize.runner_s", None),
    "recovery.checkpoint": ("recovery.checkpoint_s", "recovery.checkpoint.calls"),
    "harness.kernels": ("harness.kernels_s", "harness.kernels.calls"),
    "spatial.query": ("spatial.query_s", None),
    "spatial.build": ("spatial.build_s", "spatial.builds"),
    "edu.reconstruct": ("edu.reconstruct_s", "edu.reconstruct.calls"),
    "cluster.cache_sim": ("cluster.cache_sim_s", "cluster.cache_sim.calls"),
}


class ClosureError(AssertionError):
    """The spans do not nest: self times do not add up to covered time."""


def fold(spans: list[tuple]) -> dict[str, float]:
    """Per-layer self times (seconds) and calls, plus the closure terms.

    Returns every :data:`LAYERS` metric, ``smpi.runtime.launch_s`` (launch
    self time minus the span of its rank functions, ``join_wait_s``),
    ``unattributed_s`` (thread time outside every layer: workload code
    and gaps between a thread's top-level spans) and ``thread_time_s``
    (each thread's first-span-start to last-span-end, summed).
    Raises :class:`ClosureError` if the spans do not nest.
    """
    thread_of = {span[0]: span[5] for span in spans}
    child_ns: dict[int, int] = defaultdict(int)
    covered: dict[int, int] = defaultdict(int)
    extent: dict[int, list[int]] = {}
    ranks_of: dict[int, list[int]] = {}
    for sid, up, name, t0, t1, tid, _op in spans:
        if up and thread_of.get(up) == tid:
            child_ns[up] += t1 - t0
        else:
            covered[tid] += t1 - t0
        span = extent.setdefault(tid, [t0, t1])
        span[0], span[1] = min(span[0], t0), max(span[1], t1)
        if name == "rank":
            env = ranks_of.setdefault(up, [t0, t1])
            env[0], env[1] = min(env[0], t0), max(env[1], t1)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for sid, _up, name, t0, t1, _tid, _op in spans:
        own = t1 - t0 - child_ns[sid]
        if own < 0:
            raise ClosureError(f"span {sid} ({name}) has children longer than itself")
        self_ns[name] += own
        calls[name] += 1
    total = sum(hi - lo for lo, hi in extent.values())
    gaps = total - sum(covered.values())
    if sum(self_ns.values()) != sum(covered.values()) or gaps < 0:
        raise ClosureError("self times do not add up to the time spans cover")
    join_ns = sum(hi - lo for lo, hi in ranks_of.values())
    out: dict[str, float] = {}
    for span_name, (time_metric, calls_metric) in LAYERS.items():
        out[time_metric] = self_ns[span_name] / 1e9
        if calls_metric is not None:
            out[calls_metric] = calls[span_name]
    out["smpi.runtime.launch_s"] = (self_ns["smpi.runtime.launch"] - join_ns) / 1e9
    out["smpi.runtime.join_wait_s"] = join_ns / 1e9
    out["smpi.runtime.launches"] = calls["smpi.runtime.launch"]
    out["unattributed_s"] = (sum(self_ns[n] for n in UNATTRIBUTED) + gaps) / 1e9
    out["thread_time_s"] = total / 1e9
    return out


#: span name -> metric for the CPU time recorded by ``cpu=True`` spans.
CPU_METRICS = {
    "rank": "interp.rank_cpu_s",
    "smpi.runtime.block": "smpi.runtime.block_cpu_s",
    "smpi.runtime.lock": "smpi.runtime.lock_cpu_s",
}


def cpu_times(cpu_spans: list[tuple[str, int]]) -> dict[str, float]:
    """Thread CPU seconds per :data:`CPU_METRICS` metric."""
    out = dict.fromkeys(CPU_METRICS.values(), 0.0)
    for name, ns in cpu_spans:
        out[CPU_METRICS[name]] += ns / 1e9
    return out
