"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is an immutable value object.  Builder methods
return a *new* plan (so plans compose like configuration, not like
mutable state), and :meth:`FaultPlan.from_spec` / :meth:`from_toml`
load the same shapes from a dict or a TOML file for the ``repro faults
--plan`` CLI.

Message-level faults (drop, duplicate, delay, slow link) target
messages through a :class:`MessageSelector`; crash faults name a rank
and a trigger (virtual time or Nth send).  All ranks here are *world*
ranks.  Every fault carries a stable ``key`` used both for reporting
and as part of the deterministic probability hash (see
:mod:`repro.faults.injector`).
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ValidationError

#: Selector wildcard: match any rank / any tag.
ANY: int = -1


@dataclass(frozen=True)
class MessageSelector:
    """Which messages a message-level fault applies to.

    ``src``/``dst``/``tag`` of ``ANY`` (-1) match everything;
    ``min_bytes`` restricts to large messages (how a straggler link is
    made payload-size-dependent); ``after_n`` skips the first *n*
    matching messages; ``count`` caps how many times the fault fires;
    ``probability`` fires on each eligible message with that chance —
    deterministically, from the plan seed (see
    :class:`~repro.faults.injector.FaultInjector`).

    Match ordinals are counted per *sending* rank, so every rank's
    fault decisions follow its own program order and stay reproducible
    regardless of thread scheduling.
    """

    src: int = ANY
    dst: int = ANY
    tag: int = ANY
    min_bytes: int = 0
    after_n: int = 0
    count: Optional[int] = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.after_n < 0:
            raise ValidationError(f"after_n must be >= 0, got {self.after_n}")
        if self.count is not None and self.count < 1:
            raise ValidationError(f"count must be >= 1, got {self.count}")
        if self.min_bytes < 0:
            raise ValidationError(f"min_bytes must be >= 0, got {self.min_bytes}")

    def matches(self, src: int, dst: int, tag: int, nbytes: int) -> bool:
        """Static predicate (ordinals/probability applied by the injector)."""
        if self.src != ANY and src != self.src:
            return False
        if self.dst != ANY and dst != self.dst:
            return False
        if self.tag != ANY and tag != self.tag:
            return False
        return nbytes >= self.min_bytes

    def describe(self) -> str:
        parts = []
        if self.src != ANY:
            parts.append(f"src={self.src}")
        if self.dst != ANY:
            parts.append(f"dst={self.dst}")
        if self.tag != ANY:
            parts.append(f"tag={self.tag}")
        if self.min_bytes:
            parts.append(f">={self.min_bytes}B")
        if self.after_n:
            parts.append(f"after {self.after_n}")
        if self.count is not None:
            parts.append(f"x{self.count}")
        if self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
        return ", ".join(parts) if parts else "every message"


@dataclass(frozen=True)
class DropFault:
    """Selected messages are silently lost (never delivered)."""

    key: str
    selector: MessageSelector


@dataclass(frozen=True)
class DuplicateFault:
    """Selected messages arrive ``copies`` extra times (at-least-once
    delivery, the classic idempotency drill)."""

    key: str
    selector: MessageSelector
    copies: int = 1

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ValidationError(f"copies must be >= 1, got {self.copies}")


@dataclass(frozen=True)
class DelayFault:
    """Selected messages take ``seconds`` extra virtual wire time."""

    key: str
    selector: MessageSelector
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValidationError(f"delay seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class SlowLinkFault:
    """A straggler link: selected messages' wire time is multiplied by
    ``factor`` plus ``per_byte`` extra seconds per payload byte — so big
    messages suffer more, like a congested or degraded NIC."""

    key: str
    selector: MessageSelector
    factor: float = 1.0
    per_byte: float = 0.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValidationError(f"slow-link factor must be >= 1, got {self.factor}")
        if self.per_byte < 0:
            raise ValidationError(f"per_byte must be >= 0, got {self.per_byte}")


@dataclass(frozen=True)
class CrashFault:
    """Rank ``rank`` dies — at virtual time ``at_time``, or just before
    its ``on_nth_send``-th send (1-based), whichever is set."""

    key: str
    rank: int
    at_time: Optional[float] = None
    on_nth_send: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.at_time is None) == (self.on_nth_send is None):
            raise ValidationError(
                "crash needs exactly one trigger: at_time or on_nth_send"
            )
        if self.on_nth_send is not None and self.on_nth_send < 1:
            raise ValidationError(
                f"on_nth_send is 1-based, got {self.on_nth_send}"
            )
        if self.at_time is not None and self.at_time < 0:
            raise ValidationError(f"at_time must be >= 0, got {self.at_time}")


_SELECTOR_KEYS = (
    "src", "dst", "tag", "min_bytes", "after_n", "count", "probability",
)

#: the keys each ``[[kind]]`` table of a plan spec takes
_TABLE_KEYS: dict[str, tuple[str, ...]] = {
    "drop": _SELECTOR_KEYS,
    "duplicate": _SELECTOR_KEYS + ("copies",),
    "delay": _SELECTOR_KEYS + ("seconds",),
    "slow_link": _SELECTOR_KEYS + ("factor", "per_byte"),
    "crash": ("rank", "at_time", "on_nth_send"),
}

#: spec keys whose value is a (finite) number; every other key is an integer
_NUMBER_KEYS = frozenset({"probability", "seconds", "factor", "per_byte", "at_time"})
_FLOAT_MAX = sys.float_info.max


def _check_type(where: str, key: str, value: Any) -> None:
    """Reject a spec value whose type does not fit ``key``.

    TOML booleans are Python ints, so they are rejected explicitly.
    """
    if key in _NUMBER_KEYS:
        # the bounds reject nan, infinities and ints too large for a float
        ok = isinstance(value, (int, float)) and -_FLOAT_MAX < value < _FLOAT_MAX
        expected = "a finite number"
    else:
        ok = isinstance(value, int)
        expected = "an integer"
    if not ok or isinstance(value, bool):
        raise ValidationError(f"{where} key {key!r} must be {expected}, got {value!r}")


def _tables(spec: dict[str, Any], kind: str) -> list[dict[str, Any]]:
    """The ``[[kind]]`` tables of a plan spec, keys and value types checked."""
    tables = spec.get(kind, [])
    if not isinstance(tables, list) or not all(isinstance(t, dict) for t in tables):
        raise ValidationError(
            f"fault plan key {kind!r} must be a list of tables ([[{kind}]])"
        )
    for table in tables:
        extra = set(table) - set(_TABLE_KEYS[kind])
        if extra:
            raise ValidationError(
                f"unknown key(s) {sorted(extra)} in [[{kind}]] fault spec"
            )
        for key, value in table.items():
            _check_type(f"[[{kind}]]", key, value)
    return tables


def _selector(table: dict[str, Any]) -> dict[str, Any]:
    return {k: table[k] for k in _SELECTOR_KEYS if k in table}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable fault schedule for one simulated run.

    ``seed`` drives every probabilistic decision; two runs with the same
    plan (same seed included) inject exactly the same faults and produce
    byte-identical canonical traces (see
    :func:`repro.faults.runner.trace_digest`).
    """

    seed: int = 0
    drops: tuple[DropFault, ...] = ()
    duplicates: tuple[DuplicateFault, ...] = ()
    delays: tuple[DelayFault, ...] = ()
    slow_links: tuple[SlowLinkFault, ...] = ()
    crashes: tuple[CrashFault, ...] = ()

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing (zero-overhead path)."""
        return not (
            self.drops or self.duplicates or self.delays
            or self.slow_links or self.crashes
        )

    @property
    def all_faults(self) -> tuple[Any, ...]:
        return self.drops + self.duplicates + self.delays + self.slow_links + self.crashes

    # -- fluent builders (each returns a new plan) ------------------------

    def drop(self, **selector: Any) -> "FaultPlan":
        """Add a message-drop fault; kwargs are selector fields."""
        f = DropFault(f"drop{len(self.drops)}", MessageSelector(**selector))
        return dataclasses.replace(self, drops=self.drops + (f,))

    def duplicate(self, copies: int = 1, **selector: Any) -> "FaultPlan":
        """Add a duplication fault (``copies`` extra deliveries)."""
        f = DuplicateFault(
            f"duplicate{len(self.duplicates)}", MessageSelector(**selector), copies
        )
        return dataclasses.replace(self, duplicates=self.duplicates + (f,))

    def delay(self, seconds: float, **selector: Any) -> "FaultPlan":
        """Add a fixed extra-latency fault (reordering under ANY_SOURCE)."""
        f = DelayFault(f"delay{len(self.delays)}", MessageSelector(**selector), seconds)
        return dataclasses.replace(self, delays=self.delays + (f,))

    def slow_link(
        self, factor: float = 1.0, per_byte: float = 0.0, **selector: Any
    ) -> "FaultPlan":
        """Add a straggler link (payload-size-dependent slowdown)."""
        f = SlowLinkFault(
            f"slow_link{len(self.slow_links)}",
            MessageSelector(**selector), factor, per_byte,
        )
        return dataclasses.replace(self, slow_links=self.slow_links + (f,))

    def crash(
        self,
        rank: int,
        at_time: Optional[float] = None,
        on_nth_send: Optional[int] = None,
    ) -> "FaultPlan":
        """Schedule a rank crash (exactly one of the two triggers)."""
        if any(c.rank == rank for c in self.crashes):
            raise ValidationError(f"rank {rank} already has a scheduled crash")
        f = CrashFault(f"crash{len(self.crashes)}", rank, at_time, on_nth_send)
        return dataclasses.replace(self, crashes=self.crashes + (f,))

    # -- loading ----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "FaultPlan":
        """Build a plan from a plain dict (the parsed-TOML shape).

        Top-level keys: ``seed`` (int) plus lists ``drop``,
        ``duplicate``, ``delay``, ``slow_link`` and ``crash``, each a
        list of tables whose keys are the corresponding dataclass /
        selector fields.  Counts, ranks and the seed must be integers
        (not booleans), the other values finite numbers; anything else
        raises :class:`~repro.errors.ValidationError` naming the key.
        """
        extra = set(spec) - {"seed", *_TABLE_KEYS}
        if extra:
            raise ValidationError(f"unknown key(s) {sorted(extra)} in fault plan")
        seed = spec.get("seed", 0)
        _check_type("fault plan", "seed", seed)
        plan = cls(seed=seed)
        for entry in _tables(spec, "drop"):
            plan = plan.drop(**_selector(entry))
        for entry in _tables(spec, "duplicate"):
            plan = plan.duplicate(copies=entry.get("copies", 1), **_selector(entry))
        for entry in _tables(spec, "delay"):
            if "seconds" not in entry:
                raise ValidationError("[[delay]] fault needs 'seconds'")
            plan = plan.delay(entry["seconds"], **_selector(entry))
        for entry in _tables(spec, "slow_link"):
            plan = plan.slow_link(
                factor=entry.get("factor", 1.0),
                per_byte=entry.get("per_byte", 0.0),
                **_selector(entry),
            )
        for entry in _tables(spec, "crash"):
            if "rank" not in entry:
                raise ValidationError("[[crash]] fault needs 'rank'")
            plan = plan.crash(
                entry["rank"],
                at_time=entry.get("at_time"),
                on_nth_send=entry.get("on_nth_send"),
            )
        return plan

    @classmethod
    def from_toml(cls, path: str) -> "FaultPlan":
        """Load a plan from a TOML file (stdlib ``tomllib``, 3.11+)."""
        import tomllib

        try:
            with open(path, "rb") as fh:
                spec = tomllib.load(fh)
        except OSError as exc:
            raise ValidationError(
                f"cannot read fault plan {path}: {exc.strerror or exc}"
            ) from exc
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"bad fault-plan TOML {path}: {exc}") from exc
        return cls.from_spec(spec)

    def describe(self) -> str:
        """Human-readable one-line-per-fault summary for the CLI."""
        if self.empty:
            return f"empty plan (seed={self.seed})"
        lines = [f"fault plan (seed={self.seed}):"]
        for f in self.drops:
            lines.append(f"  {f.key}: drop [{f.selector.describe()}]")
        for f in self.duplicates:
            lines.append(
                f"  {f.key}: duplicate x{f.copies} [{f.selector.describe()}]"
            )
        for f in self.delays:
            lines.append(
                f"  {f.key}: delay +{f.seconds:g}s [{f.selector.describe()}]"
            )
        for f in self.slow_links:
            lines.append(
                f"  {f.key}: slow link x{f.factor:g}"
                + (f" +{f.per_byte:g}s/B" if f.per_byte else "")
                + f" [{f.selector.describe()}]"
            )
        for f in self.crashes:
            trigger = (
                f"at t={f.at_time:g}s" if f.at_time is not None
                else f"on send #{f.on_nth_send}"
            )
            lines.append(f"  {f.key}: crash rank {f.rank} {trigger}")
        return "\n".join(lines)
