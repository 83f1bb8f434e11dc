"""Retry helper for fault-tolerant module solutions (Module 8).

On a real cluster you would reach for exponential backoff around an RPC;
here the same idiom wraps a ``timeout=`` receive so a drill solution
reads like production code::

    part = retry_with_backoff(
        lambda timeout: comm.recv(source=src, tag=7, timeout=timeout),
        attempts=3, base_timeout=1e-3,
    )

Backoff is in *virtual* seconds — each failed attempt has already
advanced the rank's clock to its deadline, so the retry window grows
along the virtual timeline exactly as wall-clock backoff would.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

from repro.errors import (
    DeadlockError,
    SmpiRevokedError,
    SmpiTimeoutError,
    ValidationError,
)

T = TypeVar("T")

#: never retried, even when matched by ``retry_on``: a revoked
#: communicator stays revoked and a deadlocked world stays aborted, so
#: another attempt is guaranteed to fail the same way.
HARD_STOP_ERRORS = (SmpiRevokedError, DeadlockError)


def retry_with_backoff(
    fn: Callable[[float], T],
    *,
    attempts: int = 3,
    base_timeout: float = 1e-3,
    backoff: float = 2.0,
    retry_on: tuple[type[BaseException], ...] = (SmpiTimeoutError,),
) -> T:
    """Call ``fn(timeout)`` with geometrically growing timeouts.

    Returns the first successful result; re-raises the last exception
    after ``attempts`` failures.  Only exceptions in ``retry_on`` are
    retried — anything else (e.g. a crashed peer) propagates
    immediately, because retrying cannot help.  Two errors are *never*
    retried even if ``retry_on`` matches them:
    :class:`~repro.errors.SmpiRevokedError` and
    :class:`~repro.errors.DeadlockError` (see :data:`HARD_STOP_ERRORS`)
    — the condition they report is permanent, so the right move is to
    propagate into the recovery path (:mod:`repro.recovery`), not to
    burn the remaining attempts.
    """
    if attempts < 1:
        raise ValidationError(f"attempts must be >= 1, got {attempts}")
    if base_timeout <= 0:
        raise ValidationError(f"base_timeout must be > 0, got {base_timeout}")
    if backoff < 1.0:
        raise ValidationError(f"backoff must be >= 1, got {backoff}")
    timeout = base_timeout
    last: BaseException | None = None
    for _ in range(attempts):
        try:
            return fn(timeout)
        except retry_on as exc:  # noqa: PERF203 - the loop IS the feature
            if isinstance(exc, HARD_STOP_ERRORS):
                raise
            last = exc
            timeout *= backoff
    assert last is not None
    try:
        raise last
    finally:
        last = None  # the traceback holds this frame: break the cycle
