"""Text renderers for the observability views (the CLI's output side).

Everything here turns the structured results of :mod:`repro.obs.analysis`
and :mod:`repro.obs.metrics` into the monospace tables the rest of the
repository uses, so ``repro trace`` output matches the look of the
experiment reports.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.analysis import CriticalPath, LoadImbalance, WaitStateReport
from repro.obs.metrics import MetricsRegistry
from repro.smpi.trace import Tracer, TraceSummary
from repro.util.tables import TextTable


def render_rank_summary(tracer: Tracer, title: str = "Per-rank breakdown") -> str:
    """Compute/p2p/collective split per rank, Module-5 style."""
    per_rank: dict[int, TraceSummary] = defaultdict(TraceSummary)
    total = TraceSummary()
    for e in tracer.events:
        per_rank[e.rank]._add(e)
        total._add(e)
    table = TextTable(
        ["Rank", "Compute (s)", "P2P (s)", "Collective (s)", "Comm frac", "Bytes sent"],
        title=title,
    )
    for rank in sorted(per_rank):
        s = per_rank[rank]
        table.add_row(
            [
                rank, s.compute_time, s.p2p_time, s.collective_time,
                s.comm_fraction, s.bytes_sent,
            ]
        )
    table.add_row(
        [
            "all", total.compute_time, total.p2p_time, total.collective_time,
            total.comm_fraction, total.bytes_sent,
        ]
    )
    return table.render()


def render_wait_states(report: WaitStateReport, title: str = "Wait states") -> str:
    """Per-rank wait-time attribution table plus pattern totals."""
    by_rank: dict[int, dict[str, float]] = {}
    for w in report.intervals:
        by_rank.setdefault(w.rank, {}).setdefault(w.kind, 0.0)
        by_rank[w.rank][w.kind] += w.time
    table = TextTable(
        ["Rank", "Late sender (s)", "Late receiver (s)", "Collective sync (s)",
         "Fault (s)", "Recovery (s)", "Total (s)"],
        title=title,
    )
    for rank in sorted(by_rank):
        kinds = by_rank[rank]
        table.add_row(
            [
                rank,
                kinds.get("late_sender", 0.0),
                kinds.get("late_receiver", 0.0),
                kinds.get("collective_sync", 0.0),
                kinds.get("fault_delay", 0.0) + kinds.get("fault_timeout", 0.0),
                kinds.get("recovery_sync", 0.0),
                sum(kinds.values()),
            ]
        )
    lines = [table.render()]
    if not by_rank:
        lines.append("(no wait states attributed)")
    lines.append(f"total attributed wait time: {report.total_wait:.4g} s")
    return "\n".join(lines)


def render_critical_path(
    path: CriticalPath, title: str = "Critical path", max_segments: int = 20
) -> str:
    """The makespan-setting chain, largest contributions first."""
    table = TextTable(
        ["Rank", "Category", "Primitive", "Start (s)", "End (s)", "Contribution (s)"],
        title=title,
    )
    top = sorted(path.segments, key=lambda s: s.contribution, reverse=True)
    shown = top[:max_segments]
    for seg in shown:
        table.add_row(
            [seg.rank, seg.category, seg.primitive, seg.t_start, seg.t_end,
             seg.contribution]
        )
    lines = [table.render()]
    if len(top) > len(shown):
        lines.append(f"... {len(top) - len(shown)} smaller segment(s) elided")
    by_cat = path.time_by_category()
    split = ", ".join(f"{k}={v:.4g}s" for k, v in sorted(by_cat.items()))
    lines.append(
        f"critical path: {len(path.segments)} segments, "
        f"length {path.length:.4g} s (makespan {path.makespan:.4g} s); {split}"
    )
    return "\n".join(lines)


def render_imbalance(imb: LoadImbalance) -> str:
    """One-line load-imbalance verdict."""
    return (
        f"load imbalance: {imb.imbalance * 100:.1f}% "
        f"(rank {imb.most_loaded_rank} computes {imb.max_compute:.4g} s "
        f"vs {imb.mean_compute:.4g} s mean)"
    )


def render_metrics(registry: MetricsRegistry, prefix: str = "") -> str:
    return registry.render_table(prefix=prefix)
