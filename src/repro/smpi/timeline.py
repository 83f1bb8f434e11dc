"""ASCII timelines from traces: see where each rank's time went.

The visual counterpart of Module 5's compute/communication breakdown:
one lane per rank, virtual time on the x-axis, glyphs by category —
``#`` compute, ``~`` point-to-point, ``=`` collective, ``!`` fault
(injected by :mod:`repro.faults`), ``R`` recovery (revoke/shrink/agree/
checkpoint, :mod:`repro.recovery`), ``S`` sanitizer (wildcard matches
and findings, :mod:`repro.sanitize`), ``.`` idle (time with no recorded
activity, usually waiting inside a later-recorded blocking call's
span).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ValidationError
from repro.smpi.trace import Tracer

_GLYPHS = {
    "compute": "#",
    "p2p": "~",
    "collective": "=",
    "fault": "!",
    "recovery": "R",
    "sanitize": "S",
}


def render_timeline(
    tracer: Tracer,
    *,
    ranks: Optional[Sequence[int]] = None,
    width: int = 72,
    t_end: Optional[float] = None,
) -> str:
    """Render one lane per rank over ``[0, t_end]`` virtual seconds.

    When several events overlap a cell, the busier category wins in the
    order recovery > fault > collective > p2p > compute (faults and
    recovery dominate visually, as they dominate attention).
    """
    if width < 1:
        raise ValidationError(f"timeline width must be >= 1, got {width}")
    events = tracer.events
    if not events:
        raise ValidationError("trace is empty — was tracing enabled?")
    if ranks is None:
        ranks = sorted({e.rank for e in events})
    horizon = t_end if t_end is not None else max(e.t_end for e in events)
    if horizon <= 0:
        raise ValidationError("timeline horizon must be positive")
    priority = {
        "compute": 0, "p2p": 1, "collective": 2, "fault": 3, "recovery": 4,
        "sanitize": 5,
    }
    lines = []
    for rank in ranks:
        cells = [" "] * width
        cell_priority = [-1] * width
        for e in events:
            if e.rank != rank or e.category not in _GLYPHS:
                continue
            if e.t_start > horizon:  # beyond an explicit, shorter t_end
                continue
            start = min(width - 1, int(e.t_start / horizon * (width - 1)))
            stop = max(start, int(min(e.t_end, horizon) / horizon * (width - 1)))
            for col in range(start, stop + 1):
                if priority[e.category] > cell_priority[col]:
                    cells[col] = _GLYPHS[e.category]
                    cell_priority[col] = priority[e.category]
        lines.append(f"rank {rank:>3} |{''.join(cells)}|")
    header = (
        f"{'':>9}0{' ' * (width - len(f'{horizon:.3g}') - 1)}{horizon:.3g}s"
    )
    legend = (
        "          # compute   ~ point-to-point   = collective   ! fault"
        "   R recovery   S sanitize"
    )
    return "\n".join([header] + lines + [legend])
