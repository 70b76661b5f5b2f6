"""Int bitmaps for candidate sets over dense vertex ids.

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

Bitmaps are Python arbitrary-precision ints: one C-level bignum
instruction per operation, no wrapper objects and no per-call dispatch.
For the paper's databases of many small graphs a bitmap is a few machine
words.  This module holds the primitives the int operators lack:
packing (:func:`pack_bits`), ordered decoding (:func:`iter_bits`,
:func:`bit_list`) and size accounting (:func:`bitmap_bytes`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["bit_list", "bitmap_bytes", "iter_bits", "pack_bits"]

#: Window width for chunked bit decoding.  Wide enough that the outer
#: shift loop is rare, narrow enough that ``chunk & -chunk`` stays cheap.
_CHUNK_BITS = 256
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


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
