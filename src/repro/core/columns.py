"""Columnar (SoA) leaf storage: one column arena per tree.

Every leaf's rows live in its tree's :class:`LeafArena`, one *slot* per
leaf; a leaf node keeps only its slot number
(:attr:`~repro.core.node.Node.slot`).  A slot holds ``rows`` rows
(``leaf_capacity + 1``: a geometric leaf holds one row over capacity
until it splits) in three columns:

* ``coords`` -- ``(d, slots, rows)`` int64, dimension-major: one
  dimension of every slot is one plane, so a scan takes the dimensions
  a query constrains of all its leaves at once (:meth:`LeafArena.select`);
* ``measures`` -- ``(slots, rows)`` float64;
* ``hwords`` -- ``(slots, rows, w)`` big-endian uint64 Hilbert key words
  (Hilbert trees only; ``None`` in geometric trees);

and ``sizes``, ``(slots,)``, the size each slot's leaf has published
-- the one copy of a leaf's size (:meth:`LeafArena.size`).

The arena answers every per-slot read and write itself, indexing its
current chunk at call time.  No leaf allocates a buffer of its own and
no per-record Python object remains anywhere in a leaf.  Key order is
preserved because the words are unsigned big-endian: lexicographic row
order equals numeric key order, so the stable ``np.lexsort``
(:func:`~repro.hilbert.compact_hilbert.lexsort_words`) produces exactly
the permutation ``sorted`` produced on Python ints.

Rows are written only by arena methods: geometric leaves take rows one
at a time (:meth:`LeafArena.append`), Hilbert leaves take key-sorted
blocks with their key words (:meth:`LeafArena.extend`), and a batch of
new leaves is written in one assignment per column
(:meth:`LeafArena.fill`).  A view the arena hands out (``coords``,
``measures``, ``hwords``) is only read.  Writers write rows *before*
publishing the new size, and a reader reads the sizes *before* the
rows (:meth:`LeafArena.select`), so a reader that takes the rows below
a published size never sees a torn row.

A bulk load sizes the arena to its leaves (:meth:`LeafArena.restart`);
each later growth doubles it by moving the used slots into one larger
chunk, so a read is always one take from one chunk.  A view taken
before a growth still reads the right rows: the growth copied them, and
the old chunk lives as long as a view of it.  A leaf replaced by a
split or a repack gives its slot back (:meth:`LeafArena.release`) once
it is out of the tree, and the next new leaf reuses it.  The arena has
no lock: its tree holds its one lock for each whole call
(:attr:`~repro.core.base.BaseTree.lock`), so no read runs while a slot
moves or is reused.
"""

from __future__ import annotations

import mmap
from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import argmax_words, key_from_words

__all__ = ["LeafArena"]

#: slots of an empty tree's first chunk
_FIRST_CHUNK = 8


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array on an anonymous mapping of its own: a page
    no row was written to is never resident, and the pages go back to
    the system when the array is dropped.  From the heap, an arena that
    doubles by moving its slots leaves freed blocks behind that later
    chunks reuse whole, unused slots included: 8 bulk-loaded TPC-DS
    shards taking 1 200 batches of 64 rows peaked at +39.0 MB that way,
    against +30.9 MB mapped and +25.3 MB with per-leaf buffers."""
    n = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, n * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype=dtype, count=n).reshape(shape)


class _Chunk:
    __slots__ = ("coords", "measures", "hwords", "sizes")

    def __init__(self, slots: int, rows: int, num_dims: int, key_words: int):
        self.coords = _mapped((num_dims, slots, rows), np.int64)
        self.measures = _mapped((slots, rows), np.float64)
        self.hwords = _mapped((slots, rows, key_words), np.uint64) if key_words else None
        self.sizes = np.zeros(slots, dtype=np.int64)


class LeafArena:
    """The row columns of every leaf of one tree, one slot per leaf."""

    def __init__(self, rows: int, num_dims: int, key_words: int = 0):
        self.rows = rows
        self.num_dims = num_dims
        self.key_words = key_words
        #: bytes of one slot: what a leaf held in its own buffers
        self.slot_bytes = rows * (num_dims + 1 + key_words) * 8
        # row i of ``_live[n]``: is row i below a published size n
        self._live = np.arange(rows) < np.arange(rows + 1)[:, None]
        self.restart(_FIRST_CHUNK)

    def restart(self, slots: int) -> None:
        """Drop every slot and make a chunk of ``slots``: a bulk load
        sizes it to its leaves (the empty root it replaces keeps no
        slot)."""
        self.chunk = _Chunk(max(1, slots), self.rows, self.num_dims, self.key_words)
        self._next = 0  # first never-used slot
        self.free: list[int] = []
        self.owned = 0

    def _grow(self) -> None:
        """Double the slots, all used: move them into one larger chunk."""
        old, used = self.chunk, self._next
        chunk = _Chunk(used + max(_FIRST_CHUNK, used), self.rows, self.num_dims, self.key_words)
        chunk.coords[:, :used] = old.coords[:, :used]
        chunk.measures[:used] = old.measures[:used]
        if old.hwords is not None:
            chunk.hwords[:used] = old.hwords[:used]
        chunk.sizes[:used] = old.sizes[:used]
        self.chunk = chunk

    # -- slots -------------------------------------------------------------

    def leaf(self) -> int:
        """A slot of its own for a new, empty leaf."""
        self.owned += 1
        if self.free:
            slot = self.free.pop()
        else:
            if self._next == len(self.chunk.sizes):
                self._grow()
            slot = self._next
            self._next += 1
        self.chunk.sizes[slot] = 0  # a reused slot: its last leaf's size goes
        return slot

    def release(self, slot: int) -> None:
        """Give back the slot of a leaf that left the tree."""
        self.owned -= 1
        self.free.append(slot)

    # -- one slot's live rows (views: only read) ----------------------------

    def size(self, slot: int) -> int:
        """Live rows: the size published for ``slot``."""
        return self.chunk.sizes.item(slot)

    def coords(self, slot: int) -> np.ndarray:
        """``(size, d)``: row ``i`` is the leaf's row ``i``."""
        chunk = self.chunk
        return chunk.coords[:, slot, : chunk.sizes.item(slot)].T

    def measures(self, slot: int) -> np.ndarray:
        chunk = self.chunk
        return chunk.measures[slot, : chunk.sizes.item(slot)]

    def hwords(self, slot: int) -> np.ndarray:
        chunk = self.chunk
        return chunk.hwords[slot, : chunk.sizes.item(slot)]

    def max_key(self, slot: int) -> int:
        """Largest Hilbert key among the live rows, as a Python int."""
        words = self.hwords(slot)
        return key_from_words(words[argmax_words(words)])

    def key_ints(self, slot: int) -> list[int]:
        """Live Hilbert keys as Python ints (tests / validation only)."""
        return [key_from_words(row) for row in self.hwords(slot)]

    # -- writes: rows first, then the size that publishes them ---------------

    def append(self, slot: int, coords: np.ndarray, measure: float) -> None:
        """Append one row of a leaf without Hilbert keys (the caller
        checks capacity)."""
        chunk = self.chunk
        i = chunk.sizes.item(slot)
        chunk.coords[:, slot, i] = coords
        chunk.measures[slot, i] = measure
        chunk.sizes[slot] = i + 1

    def extend(
        self,
        slot: int,
        coords: np.ndarray,
        measures: np.ndarray,
        hwords: Optional[np.ndarray] = None,
    ) -> None:
        """Append a block of rows in three slice assignments."""
        chunk = self.chunk
        i = chunk.sizes.item(slot)
        n = len(measures)
        chunk.coords[:, slot, i : i + n] = coords.T
        chunk.measures[slot, i : i + n] = measures
        if hwords is not None:
            chunk.hwords[slot, i : i + n] = hwords
        chunk.sizes[slot] = i + n

    def fill(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        words: Optional[np.ndarray],
        starts: np.ndarray,
    ) -> list[int]:
        """Slots of new leaves over ``coords``, ``measures`` and
        ``words``, leaf ``i`` holding rows ``starts[i]`` up to the next
        start.  The leaves of a bulk load -- consecutive new slots, all
        but the last of one size -- take their rows in one assignment
        per column; the few of a repack take theirs leaf by leaf."""
        out = [self.leaf() for _ in range(len(starts))]
        bounds = starts.tolist() + [len(measures)]
        k, size = len(out) - 1, bounds[1]  # the leaves before the last
        chunk, at = self.chunk, out[0]
        done = 0
        if (
            k > 1
            and bounds[: k + 1] == list(range(0, k * size + 1, size))
            and out[:k] == list(range(at, at + k))
        ):
            n = k * size
            chunk.coords[:, at : at + k, :size] = coords[:n].T.reshape(-1, k, size)
            chunk.measures[at : at + k, :size] = measures[:n].reshape(k, size)
            if words is not None:
                chunk.hwords[at : at + k, :size] = words[:n].reshape(k, size, -1)
            chunk.sizes[at : at + k] = size
            done = k
        for slot, s, e in zip(out[done:], bounds[done:], bounds[done + 1 :]):
            self.extend(slot, coords[s:e], measures[s:e], None if words is None else words[s:e])
        return out

    def select(
        self,
        slots: np.ndarray,
        dims: Optional[np.ndarray],
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> tuple[int, np.ndarray]:
        """``(rows, measures)``: how many live rows the leaves on
        ``slots`` hold, and the measures of those inside ``[lo, hi]`` on
        ``dims`` (every dimension when None), in slot order.

        One take of the ``dims`` planes of those slots, one mask of the
        rows inside the bounds and below each published size, and one
        take of the measures."""
        chunk = self.chunk
        sizes = chunk.sizes[slots]  # first: a row below a size taken never changes
        planes = chunk.coords[:, slots] if dims is None else chunk.coords[dims[:, None], slots]
        if len(planes) == 1:
            keep = (lo[0] <= planes[0]) & (planes[0] <= hi[0])
        else:
            keep = ((lo[:, None, None] <= planes) & (planes <= hi[:, None, None])).all(axis=0)
        keep &= self._live[sizes]
        return int(sizes.sum()), chunk.measures[slots][keep]
