"""Bitset kernels for candidate sets over dense vertex ids.

Vertices of a :class:`~repro.graph.labeled_graph.Graph` are dense integers
``0..n-1``, so a *set of data vertices* packs into a bitmap with bit ``v``
set iff vertex ``v`` is a member.  Every set operation the filtering and
enumeration hot paths need then becomes a handful of machine instructions:

* intersection — ``a & b``;
* union — ``a | b``;
* emptiness of an intersection — ``a & b != 0`` (CFL's "adjacent to some
  candidate" test);
* cardinality — popcount;
* membership — ``(a >> v) & 1``.

Two interchangeable backends implement that contract behind the
:class:`BitsetKernel` interface:

:class:`PythonBitsetKernel` (always available)
    Bitmaps are Python arbitrary-precision ints; one C-level bignum
    instruction per operation.  For graphs of tens to a few hundred
    vertices a bitmap is a couple of machine words and this backend is
    unbeatable — no wrapper objects, no per-call dispatch.

``NumpyBitsetKernel`` (:mod:`repro.utils.bitset_numpy`, optional)
    Bitmaps are fixed-width ``uint64`` word-block arrays.  Single-bitmap
    operations cost a numpy call, but whole *frontiers* of bitmaps batch
    into one vectorized AND/ANDNOT/popcount — the regime where big-int
    bitmaps lose is exactly the multi-thousand-vertex data graphs the
    massive-single-graph workload targets.  Requires the ``[perf]``
    extra (``pip install repro[perf]``); everything degrades cleanly to
    the python backend when numpy is absent.

Backend selection is global-by-default and per-graph-size aware: the
``REPRO_BITSET_BACKEND`` environment variable (or the ``--bitset-backend``
CLI flag, which sets it) picks ``python``, ``numpy`` or ``auto``; ``auto``
chooses numpy only when it is importable *and* the data graph spans at
least :data:`AUTO_MIN_VERTICES` vertices, so the paper's AIDS/PDBS-scale
reproduction path keeps the faster-for-small-graphs big-int kernels.

The module-level functions (:func:`pack_bits`, :func:`iter_bits`,
:func:`bit_list`, :func:`bitmap_bytes`) remain the int-bitmap primitives
used by the pure-python hot paths; they are also what
:class:`PythonBitsetKernel` delegates to.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager

__all__ = [
    "AUTO_MIN_VERTICES",
    "BACKEND_NAMES",
    "BitsetKernel",
    "PythonBitsetKernel",
    "available_backends",
    "backend_override",
    "bit_list",
    "bitmap_bytes",
    "default_backend",
    "get_kernel",
    "iter_bits",
    "numpy_available",
    "pack_bits",
    "python_kernel",
    "set_default_backend",
]

#: Window width for chunked bit decoding.  Wide enough that the outer
#: shift loop is rare, narrow enough that ``chunk & -chunk`` stays cheap.
_CHUNK_BITS = 256
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1

#: The recognised backend names (``auto`` resolves to one of the others).
BACKEND_NAMES = ("python", "numpy", "auto")

#: Smallest data graph (in vertices) for which ``auto`` picks the numpy
#: backend.  Below this a bitmap is a handful of machine words and the
#: big-int kernels win on per-op overhead; above it, batch word-block
#: operations amortize the numpy call cost.  16 words of 64 bits.
AUTO_MIN_VERTICES = 1024


def pack_bits(vertices: Iterable[int]) -> int:
    """Pack vertex ids into one int bitmap (duplicates collapse)."""
    bitmap = 0
    for v in vertices:
        bitmap |= 1 << v
    return bitmap


def iter_bits(bitmap: int) -> Iterator[int]:
    """Yield the set bit positions of ``bitmap`` in ascending order."""
    offset = 0
    while bitmap:
        chunk = bitmap & _CHUNK_MASK
        while chunk:
            low = chunk & -chunk
            yield offset + low.bit_length() - 1
            chunk ^= low
        bitmap >>= _CHUNK_BITS
        offset += _CHUNK_BITS


def bit_list(bitmap: int) -> list[int]:
    """The set bit positions of ``bitmap`` as an ascending list."""
    return list(iter_bits(bitmap))


def bitmap_bytes(bitmap: int) -> int:
    """Retained size of one int bitmap in bytes (its occupied bit span)."""
    return (bitmap.bit_length() + 7) // 8


# ----------------------------------------------------------------------
# The kernel interface
# ----------------------------------------------------------------------


class BitsetKernel:
    """The operation surface a bitset backend must provide.

    A *bitmap* is backend-native (an ``int`` for the python backend, a
    ``uint64`` ndarray for the numpy backend) and always represents a
    subset of ``0..n-1`` for the ``n`` it was created with.  Binary
    operations require both operands from the same backend (and, for the
    numpy backend, the same width).

    ``to_bytes``/``from_bytes`` define the backend-agnostic wire form —
    little-endian words — so candidate payloads pickled by one backend
    can be revived by the other (e.g. across the worker-pool boundary
    when a worker lacks numpy).
    """

    name: str = "abstract"

    # -- construction ---------------------------------------------------
    def words(self, num_vertices: int) -> int:
        """Storage words (64-bit) for bitmaps over ``num_vertices``."""
        return (num_vertices + 63) >> 6

    def zero(self, num_vertices: int):
        raise NotImplementedError

    def pack(self, vertices: Iterable[int], num_vertices: int):
        raise NotImplementedError

    def from_int(self, bitmap: int, num_vertices: int):
        raise NotImplementedError

    def to_int(self, bits) -> int:
        raise NotImplementedError

    def to_bytes(self, bits) -> bytes:
        raise NotImplementedError

    def from_bytes(self, payload: bytes, num_vertices: int):
        raise NotImplementedError

    # -- single-bitmap kernels ------------------------------------------
    def and_(self, a, b):
        raise NotImplementedError

    def or_(self, a, b):
        raise NotImplementedError

    def andnot(self, a, b):
        """``a & ~b`` (set difference)."""
        raise NotImplementedError

    def popcount(self, bits) -> int:
        raise NotImplementedError

    def any(self, bits) -> bool:
        raise NotImplementedError

    def test(self, bits, v: int) -> bool:
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        raise NotImplementedError

    # -- batch kernels (generic fallbacks; numpy vectorizes these) ------
    def and_many(self, rows: Sequence):
        """Reduce-AND over ``rows`` (must be non-empty)."""
        out = rows[0]
        for row in rows[1:]:
            out = self.and_(out, row)
        return out

    def or_many(self, rows: Sequence, num_vertices: int):
        """Reduce-OR over ``rows`` (empty reduces to the zero bitmap)."""
        out = self.zero(num_vertices)
        for row in rows:
            out = self.or_(out, row)
        return out

    # -- decoding and accounting ----------------------------------------
    def iter_bits(self, bits) -> Iterator[int]:
        raise NotImplementedError

    def bit_list(self, bits) -> list[int]:
        return list(self.iter_bits(bits))

    def memory_bytes(self, bits) -> int:
        """Backend-accurate retained size of one bitmap in bytes."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<BitsetKernel {self.name}>"


class PythonBitsetKernel(BitsetKernel):
    """The pure-python big-int backend (always available)."""

    name = "python"

    def zero(self, num_vertices: int) -> int:
        return 0

    def pack(self, vertices: Iterable[int], num_vertices: int) -> int:
        return pack_bits(vertices)

    def from_int(self, bitmap: int, num_vertices: int) -> int:
        return bitmap

    def to_int(self, bits: int) -> int:
        return bits

    def to_bytes(self, bits: int) -> bytes:
        return bits.to_bytes(max(1, (bits.bit_length() + 7) // 8), "little")

    def from_bytes(self, payload: bytes, num_vertices: int) -> int:
        return int.from_bytes(payload, "little")

    def and_(self, a: int, b: int) -> int:
        return a & b

    def or_(self, a: int, b: int) -> int:
        return a | b

    def andnot(self, a: int, b: int) -> int:
        return a & ~b

    def popcount(self, bits: int) -> int:
        return bits.bit_count()

    def any(self, bits: int) -> bool:
        return bits != 0

    def test(self, bits: int, v: int) -> bool:
        return (bits >> v) & 1 == 1

    def equal(self, a: int, b: int) -> bool:
        return a == b

    def iter_bits(self, bits: int) -> Iterator[int]:
        return iter_bits(bits)

    def bit_list(self, bits: int) -> list[int]:
        return bit_list(bits)

    def memory_bytes(self, bits: int) -> int:
        return bitmap_bytes(bits)


#: The singleton python kernel (stateless, shared by everything).
_PYTHON_KERNEL = PythonBitsetKernel()

#: Lazily imported numpy kernel singleton; ``False`` = tried and absent.
_NUMPY_KERNEL: BitsetKernel | None | bool = None


def python_kernel() -> PythonBitsetKernel:
    """The shared pure-python kernel instance."""
    return _PYTHON_KERNEL


def _numpy_kernel() -> BitsetKernel | None:
    """The shared numpy kernel, or ``None`` when numpy is unavailable."""
    global _NUMPY_KERNEL
    if _NUMPY_KERNEL is None:
        try:
            from repro.utils.bitset_numpy import NumpyBitsetKernel
        except ImportError:
            _NUMPY_KERNEL = False
        else:
            _NUMPY_KERNEL = NumpyBitsetKernel()
    return _NUMPY_KERNEL if _NUMPY_KERNEL is not False else None


def numpy_available() -> bool:
    """Whether the numpy word-block backend can be used."""
    return _numpy_kernel() is not None


def available_backends() -> tuple[str, ...]:
    """The backend names usable right now (``auto`` always included)."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    names.append("auto")
    return tuple(names)


def _env_backend() -> str:
    name = os.environ.get("REPRO_BITSET_BACKEND", "auto").strip().lower()
    if name not in BACKEND_NAMES:
        warnings.warn(
            f"REPRO_BITSET_BACKEND={name!r} is not one of {BACKEND_NAMES}; "
            "using 'auto'",
            stacklevel=3,
        )
        return "auto"
    return name


#: The process-wide default backend name; ``None`` = follow the env var.
_DEFAULT_BACKEND: str | None = None

#: What :func:`default_backend` last resolved; ``None`` = resolve again.
_RESOLVED_BACKEND: str | None = None


def default_backend() -> str:
    """The effective default backend name (flag/env resolved, not auto).

    Resolved once per process — the environment variable is read and
    validated on first use, not per data graph — and again after every
    :func:`set_default_backend` / :func:`backend_override`.
    """
    global _RESOLVED_BACKEND
    if _RESOLVED_BACKEND is None:
        _RESOLVED_BACKEND = (
            _DEFAULT_BACKEND if _DEFAULT_BACKEND is not None else _env_backend()
        )
    return _RESOLVED_BACKEND


def set_default_backend(name: str | None) -> None:
    """Set the process-wide backend (``None`` restores env-var behavior).

    The CLI also exports ``REPRO_BITSET_BACKEND`` so subprocess executors
    inherit the choice; this setter covers in-process callers.
    """
    if name is not None and name not in BACKEND_NAMES:
        raise ValueError(f"unknown bitset backend {name!r}; expected {BACKEND_NAMES}")
    global _DEFAULT_BACKEND, _RESOLVED_BACKEND
    _DEFAULT_BACKEND = name
    _RESOLVED_BACKEND = None


@contextmanager
def backend_override(name: str):
    """Temporarily force the default backend (tests and benchmarks)."""
    previous = _DEFAULT_BACKEND
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def get_kernel(
    backend: str | None = None, *, num_vertices: int | None = None
) -> BitsetKernel:
    """Resolve a backend name to a kernel instance.

    ``backend=None`` uses the process default (flag/env var, else
    ``auto``).  ``auto`` picks numpy only when it is importable and
    ``num_vertices`` (when known) reaches :data:`AUTO_MIN_VERTICES`.
    Requesting ``numpy`` without numpy installed warns once and falls
    back to the python backend — the ``[perf]`` extra is optional and
    must never take the tier-1 path down with it.
    """
    name = backend if backend is not None else default_backend()
    if name == "auto":
        if num_vertices is not None and num_vertices >= AUTO_MIN_VERTICES:
            kernel = _numpy_kernel()
            if kernel is not None:
                return kernel
        return _PYTHON_KERNEL
    if name == "numpy":
        kernel = _numpy_kernel()
        if kernel is None:
            warnings.warn(
                "bitset backend 'numpy' requested but numpy is not importable; "
                "falling back to 'python' (install repro[perf] for the "
                "word-block backend)",
                stacklevel=2,
            )
            return _PYTHON_KERNEL
        return kernel
    if name == "python":
        return _PYTHON_KERNEL
    raise ValueError(f"unknown bitset backend {name!r}; expected {BACKEND_NAMES}")
