"""Per-rank virtual clocks.

Each simulated rank owns a :class:`VirtualClock`.  Communication and
compute phases advance it according to the network and roofline cost
models; speedup and efficiency in the benchmarks are computed from the
maximum virtual completion time over ranks, exactly as wall-clock timing
of the slowest rank would be on a real cluster.
"""

from __future__ import annotations

from repro.errors import ValidationError


class VirtualClock:
    """A monotonically non-decreasing simulated clock (seconds).

    Everyone reads :attr:`now` except the per-message path of
    :class:`~repro.smpi.communicator.Comm`, which reads the slot ``_now``
    to save a property call per read.  Either way the clock moves only
    through :meth:`advance` and :meth:`advance_to`.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValidationError("clock cannot start before 0")
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Advance by ``dt`` seconds (``dt >= 0``); returns the new time."""
        if dt < 0:
            raise ValidationError(f"cannot advance clock by negative dt={dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance to absolute time ``t`` if it is in the future."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.9f})"
