"""Columnar (SoA) leaf storage: one column arena per tree.

Every leaf's rows live in its tree's :class:`LeafArena`, one *slot* per
leaf.  A slot holds ``rows`` rows (``leaf_capacity + 1``: a geometric
leaf holds one row over capacity until it splits) in three columns:

* ``coords`` -- ``(d, slots, rows)`` int64, dimension-major: one
  dimension of every slot is one plane, so a scan takes the dimensions
  a query constrains of all its leaves at once (:meth:`LeafArena.select`);
* ``measures`` -- ``(slots, rows)`` float64;
* ``hwords`` -- ``(slots, rows, w)`` big-endian uint64 Hilbert key words
  (Hilbert trees only; ``None`` in geometric trees);

and ``sizes``, ``(slots,)``, the size each slot's leaf has published
-- the one copy of a leaf's size (:attr:`LeafColumns.size` reads it).

A :class:`LeafColumns` owns one slot for its leaf's life: its
``coords`` (a ``(rows, d)`` view, row ``i`` being the leaf's row ``i``),
``measures`` and ``hwords`` are views of that slot, and ``agg`` is the
leaf's aggregate, recomputable from the live measures in one broadcast
(:meth:`LeafColumns.reaggregate`).  No leaf allocates a buffer of its
own and no per-record Python object remains anywhere in a leaf.  Key
order is preserved because the words are unsigned big-endian:
lexicographic row order equals numeric key order, so the stable
``np.lexsort`` (:func:`~repro.hilbert.compact_hilbert.lexsort_words`)
produces exactly the permutation ``sorted`` produced on Python ints.

Geometric leaves take rows one at a time (:meth:`LeafColumns.append`);
Hilbert leaves take key-sorted blocks with their key words
(:meth:`LeafColumns.extend`), and a batch of new leaves is written in
one assignment per column (:meth:`LeafArena.fill`).  Writers write rows
*before* publishing the new size, and a reader reads the sizes
*before* the rows (:meth:`LeafArena.select`), so a reader that takes
the rows below a published size never sees a torn row.

A bulk load sizes the arena to its leaves (:meth:`LeafArena.restart`);
each later growth doubles it by moving the used slots into one larger
chunk and rebinding their leaves' views, so a read is always one take
from one chunk.  A leaf replaced by a split or a repack gives its slot
back (:meth:`LeafArena.release`) once it is out of the tree, and the
next new leaf reuses it.  The arena has no lock: its tree holds its one
lock for each whole call (:attr:`~repro.core.base.BaseTree.lock`), so
no read runs while a slot moves or is reused.
"""

from __future__ import annotations

import mmap
from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import argmax_words, key_from_words
from .aggregates import Aggregate

__all__ = ["LeafArena", "LeafColumns"]

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
        slots = max(1, slots)
        self.chunk = _Chunk(slots, self.rows, self.num_dims, self.key_words)
        self._owners: list[Optional[LeafColumns]] = [None] * slots  # by slot
        self._next = 0  # first never-used slot
        self.free: list[int] = []
        self.owned = 0

    def _grow(self) -> None:
        """Double the slots: move the used ones into one larger chunk
        and rebind their leaves' views."""
        old, used, end = self.chunk, self._next, len(self._owners)
        slots = max(_FIRST_CHUNK, end)
        chunk = _Chunk(end + slots, self.rows, self.num_dims, self.key_words)
        chunk.coords[:, :used] = old.coords[:, :used]
        chunk.measures[:used] = old.measures[:used]
        if old.hwords is not None:
            chunk.hwords[:used] = old.hwords[:used]
        chunk.sizes[:used] = old.sizes[:used]
        self.chunk = chunk
        for cols in self._owners:
            if cols is not None:
                cols.bind(chunk)
        self._owners.extend([None] * slots)

    # -- slots -------------------------------------------------------------

    def leaf(self) -> "LeafColumns":
        """Columns for a new leaf, on a slot of its own."""
        self.owned += 1
        if self.free:
            slot = self.free.pop()
        else:
            if self._next == len(self._owners):
                self._grow()
            slot = self._next
            self._next += 1
        cols = self._owners[slot] = LeafColumns(self.chunk, slot)
        return cols

    def release(self, cols: "LeafColumns") -> None:
        """Give back the slot of a leaf that left the tree."""
        self.owned -= 1
        self._owners[cols.slot] = None
        self.free.append(cols.slot)

    def holds(self, cols: "LeafColumns") -> bool:
        """Whether ``cols`` own their slot and are views of it."""
        chunk, at = self.chunk, cols.slot
        views = [
            (cols.coords, chunk.coords[:, at]),
            (cols.measures, chunk.measures[at]),
            (cols._sizes[at : at + 1], chunk.sizes[at : at + 1]),
        ]
        if chunk.hwords is not None:
            views.append((cols.hwords, chunk.hwords[at]))
        return self._owners[at] is cols and all(
            np.shares_memory(view, own) for view, own in views
        )

    # -- bulk writes and reads ---------------------------------------------

    def fill(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        words: Optional[np.ndarray],
        starts: np.ndarray,
    ) -> list["LeafColumns"]:
        """Columns for new leaves over ``coords``, ``measures`` and
        ``words``, leaf ``i`` holding rows ``starts[i]`` up to the next
        start.  The leaves of a bulk load -- consecutive new slots, all
        but the last of one size -- take their rows in one assignment
        per column; the few of a repack take theirs leaf by leaf."""
        out = [self.leaf() for _ in range(len(starts))]
        bounds = starts.tolist() + [len(measures)]
        k, size = len(out) - 1, bounds[1]  # the leaves before the last
        chunk, at = self.chunk, out[0].slot
        done = 0
        if (
            k > 1
            and bounds[: k + 1] == list(range(0, k * size + 1, size))
            and [c.slot for c in out[:k]] == list(range(at, at + k))
        ):
            n = k * size
            chunk.coords[:, at : at + k, :size] = coords[:n].T.reshape(-1, k, size)
            chunk.measures[at : at + k, :size] = measures[:n].reshape(k, size)
            if words is not None:
                chunk.hwords[at : at + k, :size] = words[:n].reshape(k, size, -1)
            chunk.sizes[at : at + k] = size
            done = k
        for c, s, e in zip(out[done:], bounds[done:], bounds[done + 1 :]):
            c.set_rows(coords[s:e], measures[s:e], None if words is None else words[s:e])
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


class LeafColumns:
    """One leaf's rows: views of its slot in the tree's arena."""

    __slots__ = ("coords", "measures", "hwords", "agg", "slot", "_sizes")

    def __init__(self, chunk: _Chunk, slot: int):
        self.slot = slot
        self.bind(chunk)
        self.agg = Aggregate.empty()
        self.publish(0)  # a reused slot: its last leaf's size goes

    def bind(self, chunk: _Chunk) -> None:
        """Make the columns views of this slot in ``chunk``."""
        at = self.slot
        self.coords = chunk.coords[:, at].T
        self.measures = chunk.measures[at]
        self.hwords = chunk.hwords[at] if chunk.hwords is not None else None
        self._sizes = chunk.sizes

    @property
    def size(self) -> int:
        """Live rows: the size published in the arena."""
        return self._sizes.item(self.slot)

    @property
    def nbytes(self) -> int:
        """Bytes of the slot (capacity, not just live rows)."""
        n = self.coords.nbytes + self.measures.nbytes
        if self.hwords is not None:
            n += self.hwords.nbytes
        return n

    # -- live views --------------------------------------------------------

    def live_coords(self) -> np.ndarray:
        return self.coords[: self.size]

    def live_measures(self) -> np.ndarray:
        return self.measures[: self.size]

    def live_hwords(self) -> np.ndarray:
        return self.hwords[: self.size]

    # -- mutation ----------------------------------------------------------

    def publish(self, size: int) -> None:
        """Make rows below ``size`` visible (written before this)."""
        self._sizes[self.slot] = size

    def append(self, coords: np.ndarray, measure: float) -> None:
        """Append one row of a leaf without Hilbert keys (caller checks
        capacity and holds the lock)."""
        i = self.size
        self.coords[i] = coords
        self.measures[i] = measure
        self.publish(i + 1)

    def extend(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        hwords: Optional[np.ndarray] = None,
    ) -> None:
        """Append a block of rows in three slice assignments."""
        i = self.size
        n = len(measures)
        self.coords[i : i + n] = coords
        self.measures[i : i + n] = measures
        if hwords is not None:
            self.hwords[i : i + n] = hwords
        self.publish(i + n)

    def set_rows(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        hwords: Optional[np.ndarray] = None,
    ) -> None:
        """Fill a fresh (unpublished) leaf's columns from arrays."""
        n = len(measures)
        self.coords[:n] = coords
        self.measures[:n] = measures
        if hwords is not None:
            self.hwords[:n] = hwords
        self.publish(n)

    # -- broadcasts --------------------------------------------------------

    def reaggregate(self) -> Aggregate:
        """Recompute and install the accumulator in one broadcast."""
        self.agg = Aggregate.of_array(self.live_measures())
        return self.agg

    def max_key(self) -> int:
        """Largest Hilbert key among the live rows, as a Python int."""
        return key_from_words(self.hwords[argmax_words(self.live_hwords())])

    def key_ints(self) -> list[int]:
        """Live Hilbert keys as Python ints (tests / validation only)."""
        return [key_from_words(row) for row in self.live_hwords()]
