"""Core MPI-like datatypes: wildcards, reduction ops, ``Status``.

Naming follows mpi4py so that module code reads like real MPI code:
``ANY_SOURCE``/``ANY_TAG`` wildcards, ``SUM``/``MAX``/... reduction
operators, and a ``Status`` object whose ``Get_count`` reports message
size (the ``MPI_Get_count`` of Table II).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import ValidationError

#: Wildcard source rank for ``recv``/``probe`` (``MPI_ANY_SOURCE``).
ANY_SOURCE: int = -1
#: Wildcard message tag for ``recv``/``probe`` (``MPI_ANY_TAG``).
ANY_TAG: int = -1
#: Highest legal tag value (mirrors a typical ``MPI_TAG_UB``).
TAG_UB: int = 2**22 - 1

#: Root value used by no rank; handy default in some internals.
PROC_NULL: int = -2

#: Error-handler: an operation that observes a crashed peer aborts the
#: whole world, as a real MPI job dies (``MPI_ERRORS_ARE_FATAL``).  The
#: default on every communicator.
ERRORS_ARE_FATAL: str = "errors_are_fatal"
#: Error-handler: the observing operation raises
#: :class:`~repro.errors.RankCrashedError` into user code instead, so
#: fault-tolerant solutions can catch it and degrade
#: (``MPI_ERRORS_RETURN``).
ERRORS_RETURN: str = "errors_return"


@dataclass(frozen=True)
class Op:
    """A reduction operator.

    ``fn`` combines two contributions; it must be associative, and
    commutative unless ``commutative=False``.  Arrays reduce elementwise
    because the underlying numpy ufuncs broadcast.
    """

    name: str
    fn: Callable[[Any, Any], Any]
    commutative: bool = True

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def reduce_sequence(self, items: list[Any]) -> Any:
        """Left fold of ``items`` in rank order (deterministic)."""
        if not items:
            raise ValidationError("reduction over empty contribution list")
        acc = items[0]
        for item in items[1:]:
            acc = self.fn(acc, item)
        return acc


def _loc_op(cmp: Callable[[Any, Any], bool]) -> Callable[[Any, Any], Any]:
    def fn(a: Any, b: Any) -> Any:
        (va, ia), (vb, ib) = a, b
        if cmp(vb, va) or (vb == va and ib < ia):
            return (vb, ib)
        return (va, ia)

    return fn


SUM = Op("SUM", lambda a, b: a + b)
PROD = Op("PROD", lambda a, b: a * b)
MIN = Op("MIN", lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b))
MAX = Op("MAX", lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b))
LAND = Op("LAND", lambda a, b: np.logical_and(a, b) if isinstance(a, np.ndarray) else (bool(a) and bool(b)))
LOR = Op("LOR", lambda a, b: np.logical_or(a, b) if isinstance(a, np.ndarray) else (bool(a) or bool(b)))
BAND = Op("BAND", lambda a, b: a & b)
BOR = Op("BOR", lambda a, b: a | b)
BXOR = Op("BXOR", lambda a, b: a ^ b)
#: Reduce ``(value, index)`` pairs to the pair with the smallest value.
MINLOC = Op("MINLOC", _loc_op(lambda x, y: x < y))
#: Reduce ``(value, index)`` pairs to the pair with the largest value.
MAXLOC = Op("MAXLOC", _loc_op(lambda x, y: x > y))

ALL_OPS = (SUM, PROD, MIN, MAX, LAND, LOR, BAND, BOR, BXOR, MINLOC, MAXLOC)


@dataclass(slots=True)
class Status:
    """Receive status (``MPI_Status``): actual source, tag and size."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0
    error: int = 0

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def Get_count(self, itemsize: int = 1) -> int:
        """Number of ``itemsize``-byte elements in the message.

        Mirrors ``MPI_Get_count``; raises if the message size is not a
        whole number of elements (MPI returns ``MPI_UNDEFINED``).
        """
        if itemsize <= 0:
            raise ValidationError(f"itemsize must be positive, got {itemsize}")
        if self.nbytes % itemsize != 0:
            raise ValidationError(
                f"message of {self.nbytes} bytes is not a multiple of itemsize {itemsize}"
            )
        return self.nbytes // itemsize

    def get_count(self, itemsize: int = 1) -> int:
        """Alias of :meth:`Get_count` in the lowercase convention."""
        return self.Get_count(itemsize)


def payload_nbytes(obj: Any) -> int:
    """Estimate the on-wire size of a message payload in bytes.

    numpy arrays and raw byte containers are measured exactly; scalars
    use their natural width; everything else falls back to pickle length
    (which is also how the object protocol of mpi4py moves data).
    """
    cls = type(obj)
    if cls is int or cls is float:  # the common scalar, before any isinstance
        return 8
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, np.bool_)):
        return 1
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple)) and all(
        isinstance(x, (int, float, np.integer, np.floating)) for x in obj
    ):
        return 8 * len(obj)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable payloads are rare
        return 64
