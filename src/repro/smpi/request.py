"""Non-blocking communication requests (``MPI_Request`` equivalents).

``isend``/``irecv`` return a :class:`Request`; completion is observed
with :meth:`Request.wait` / :meth:`Request.test` or the module-level
:func:`waitall` / :func:`waitany`, mirroring ``MPI_Wait``/``MPI_Test``/
``MPI_Waitall``/``MPI_Waitany``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.errors import SMPIError
from repro.smpi.datatypes import ANY_SOURCE, Status

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.smpi.communicator import Comm
    from repro.smpi.message import Envelope, PostedRecv


class Request:
    """Handle for an outstanding non-blocking send or receive.

    Instances are created by the communicator; user code only calls
    :meth:`wait` and :meth:`test`.  The communicator reads and writes
    the underscored fields directly: ``_env``/``_pr`` while the request
    is pending, and :meth:`_finish` sets ``_payload`` and ``_source``
    once.  A completed request holds no ``Status``: :meth:`wait` and
    :meth:`test` fill the caller's from ``_source`` and the envelope's
    tag and size.
    """

    __slots__ = ("_comm", "kind", "_complete", "_payload", "_source", "_env", "_pr",
                 "_recv_buffer")

    def __init__(self, comm: "Comm", kind: str):
        self._comm = comm
        self.kind = kind  # "isend" or "irecv"
        self._complete = False
        self._payload: Any = None
        #: the status source once complete: the sender's comm rank for an
        #: irecv or an eager isend, ``ANY_SOURCE`` for a rendezvous isend
        self._source = ANY_SOURCE
        #: the sent envelope (isend), or the matched one (irecv) once known
        self._env: Optional["Envelope"] = None
        #: an irecv's posted receive, while no message had matched it yet
        self._pr: Optional["PostedRecv"] = None
        #: the buffer an ``Irecv`` fills when it completes
        self._recv_buffer: Optional["np.ndarray"] = None

    @property
    def completed(self) -> bool:
        return self._complete

    def _finish(self, payload: Any, source: int) -> None:
        self._complete = True
        self._payload = payload
        self._source = source
        # Every request completion funnels through here — the one hook
        # site the sanitizer needs for leak and buffer-safety tracking.
        san = self._comm.world.sanitizer
        if san is not None:
            san.on_request_done(self)

    def _fill(self, status: Status) -> None:
        env = self._env
        status.source = self._source
        status.tag = env.tag
        status.nbytes = env.nbytes

    def wait(self, status: Optional[Status] = None, timeout: Optional[float] = None) -> Any:
        """Block until complete; returns the received object for
        ``irecv`` requests and ``None`` for ``isend`` requests.

        ``timeout`` (virtual seconds) bounds the wait, raising
        :class:`~repro.errors.SmpiTimeoutError` on expiry; the request
        stays pending, so a later ``wait`` can still complete it (the
        Module 8 retry idiom)."""
        if not self._complete:
            self._comm._wait_request(self, timeout=timeout)
        if status is not None:
            self._fill(status)
        return self._payload

    def test(self, status: Optional[Status] = None) -> tuple[bool, Any]:
        """Non-blocking completion check: ``(flag, payload_or_None)``."""
        if not self._complete:
            self._comm._test_request(self)
        if self._complete and status is not None:
            self._fill(status)
        return (self._complete, self._payload if self._complete else None)

    # mpi4py-style aliases
    Wait = wait
    Test = test


def waitall(requests: Sequence[Request], statuses: Optional[list[Status]] = None) -> list[Any]:
    """Wait for every request; returns their payloads in order."""
    if statuses is not None and len(statuses) != len(requests):
        raise SMPIError("statuses list must match requests list length")
    out = []
    for i, req in enumerate(requests):
        status = statuses[i] if statuses is not None else None
        out.append(req.wait(status))
    return out


def testall(
    requests: Sequence[Request], statuses: Optional[list[Status]] = None
) -> tuple[bool, Optional[list[Any]]]:
    """``MPI_Testall``: ``(True, payloads)`` when every request has
    completed, ``(False, None)`` otherwise (without blocking)."""
    if statuses is not None and len(statuses) != len(requests):
        raise SMPIError("statuses list must match requests list length")
    for req in requests:
        flag, _ = req.test()
        if not flag:
            return (False, None)
    payloads = []
    for i, req in enumerate(requests):
        status = statuses[i] if statuses is not None else None
        payloads.append(req.wait(status))
    return (True, payloads)


def waitany(requests: Sequence[Request]) -> tuple[int, Any]:
    """Wait until any request completes; returns ``(index, payload)``.

    Polls test() over the set; inside the simulator a failed poll round
    blocks on the first incomplete request, which is fair enough for the
    teaching workloads (and avoids a busy loop).
    """
    if not requests:
        raise SMPIError("waitany over empty request list")
    while True:
        for i, req in enumerate(requests):
            flag, payload = req.test()
            if flag:
                return i, payload
        # Nothing ready: block on the first incomplete one.
        for i, req in enumerate(requests):
            if not req.completed:
                return i, req.wait()
