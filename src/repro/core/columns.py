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
each later growth doubles it.  On a thread-safe tree the arena grows
by adding chunks, so a slot's buffers never move while a leaf owns it:
the lock-coupled geometric writers append to a leaf without the tree
lock.  Any other tree has no reader or writer running while it grows,
so its arena moves the used slots into one larger chunk and rebinds
their leaves' views: a read there is always one take from one chunk.

A leaf replaced by a split or a repack gives its slot back
(:meth:`LeafArena.release`) once it is out of the tree.  Single-threaded
trees reuse it at once.  On thread-safe trees a scan may have collected
the leaf and not yet read its rows, so a slot released while a scan is
running is reused only once every scan that started before the release
has ended (:meth:`LeafArena.enter` / :meth:`LeafArena.leave`).
"""

from __future__ import annotations

import mmap
import threading
from bisect import bisect_right
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
    __slots__ = ("base", "coords", "measures", "hwords", "sizes")

    def __init__(self, base: int, slots: int, rows: int, num_dims: int, key_words: int):
        self.base = base
        self.coords = _mapped((num_dims, slots, rows), np.int64)
        self.measures = _mapped((slots, rows), np.float64)
        self.hwords = _mapped((slots, rows, key_words), np.uint64) if key_words else None
        self.sizes = np.zeros(slots, dtype=np.int64)


class LeafArena:
    """The row columns of every leaf of one tree, one slot per leaf."""

    def __init__(
        self, rows: int, num_dims: int, key_words: int = 0, thread_safe: bool = False
    ):
        self.rows = rows
        self.num_dims = num_dims
        self.key_words = key_words
        #: bytes of one slot: what a leaf held in its own buffers
        self.slot_bytes = rows * (num_dims + 1 + key_words) * 8
        # row i of ``_live[n]``: is row i below a published size n
        self._live = np.arange(rows) < np.arange(rows + 1)[:, None]
        self._lock = threading.Lock() if thread_safe else None
        self.restart(_FIRST_CHUNK)

    def restart(self, slots: int) -> None:
        """Drop every slot and make one chunk of ``slots``: a bulk load
        sizes the first chunk to its leaves (the empty root it replaces
        keeps no slot)."""
        self._chunks: list[_Chunk] = []
        self._bases: list[int] = []
        self._owners: list[Optional[LeafColumns]] = []  # by slot
        self._end = 0  # slots in all chunks
        self._next = 0  # first never-used slot
        self.free: list[int] = []
        self.limbo: list[tuple[int, int]] = []  # (release epoch, slot)
        self.owned = 0
        self._epoch = 0
        self._readers: dict[int, int] = {}  # start epoch -> running scans
        self._grow(max(1, slots))

    def _grow(self, slots: int) -> None:
        """Add ``slots`` slots.  A thread-safe tree's arena adds a chunk:
        its lock-coupled writers append to a leaf without the tree lock,
        so a slot's buffers never move while a leaf owns it.  No other
        tree reads or writes while it grows, so its arena moves the used
        slots into one larger chunk and rebinds their leaves' views:
        every read is then a take from one chunk."""
        if self._lock is not None or not self._chunks:
            self._chunks.append(
                _Chunk(self._end, slots, self.rows, self.num_dims, self.key_words)
            )
            self._bases.append(self._end)
        else:
            old, used = self._chunks[0], self._next
            chunk = _Chunk(0, self._end + slots, self.rows, self.num_dims, self.key_words)
            chunk.coords[:, :used] = old.coords[:, :used]
            chunk.measures[:used] = old.measures[:used]
            if old.hwords is not None:
                chunk.hwords[:used] = old.hwords[:used]
            chunk.sizes[:used] = old.sizes[:used]
            self._chunks = [chunk]
            for cols in self._owners:
                if cols is not None:
                    cols.bind(chunk)
        self._owners.extend([None] * slots)
        self._end += slots

    def _chunk(self, slot: int) -> _Chunk:
        return self._chunks[bisect_right(self._bases, slot) - 1]

    # -- slots -------------------------------------------------------------

    def leaf(self) -> "LeafColumns":
        """Columns for a new leaf, on a slot of its own."""
        if self._lock is None:
            slot = self._take()
        else:
            with self._lock:
                slot = self._take()
        cols = self._owners[slot] = LeafColumns(self._chunk(slot), slot)
        return cols

    def _take(self) -> int:
        if self.limbo:
            oldest = min(self._readers, default=self._epoch + 1)
            ready = [s for e, s in self.limbo if e < oldest]
            if ready:
                self.free.extend(ready)
                self.limbo = [(e, s) for e, s in self.limbo if e >= oldest]
        self.owned += 1
        if self.free:
            return self.free.pop()
        if self._next == self._end:
            self._grow(max(_FIRST_CHUNK, self._end))
        self._next += 1
        return self._next - 1

    def release(self, cols: "LeafColumns") -> None:
        """Give back the slot of a leaf that left the tree."""
        if self._lock is None:
            self.owned -= 1
            self._owners[cols.slot] = None
            self.free.append(cols.slot)
            return
        with self._lock:
            self.owned -= 1
            self._owners[cols.slot] = None
            self.limbo.append((self._epoch, cols.slot))
            self._epoch += 1

    def enter(self) -> int:
        """Register a scan (thread-safe trees): no slot released from
        now on is reused before the matching :meth:`leave`."""
        with self._lock:
            epoch = self._epoch
            self._readers[epoch] = self._readers.get(epoch, 0) + 1
        return epoch

    def leave(self, epoch: int) -> None:
        with self._lock:
            left = self._readers[epoch] - 1
            if left:
                self._readers[epoch] = left
            else:
                del self._readers[epoch]

    def holds(self, cols: "LeafColumns") -> bool:
        """Whether ``cols`` own their slot and are views of it."""
        chunk = self._chunk(cols.slot)
        at = cols.slot - chunk.base
        views = [
            (cols.coords, chunk.coords[:, at]),
            (cols.measures, chunk.measures[at]),
            (cols._sizes[cols._at : cols._at + 1], chunk.sizes[at : at + 1]),
        ]
        if chunk.hwords is not None:
            views.append((cols.hwords, chunk.hwords[at]))
        return self._owners[cols.slot] is cols and all(
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
        first = out[0].slot
        chunk = self._chunk(first)
        at = first - chunk.base
        done = 0
        if (
            k > 1
            and at + k <= len(chunk.sizes)
            and bounds[: k + 1] == list(range(0, k * size + 1, size))
            and [c.slot for c in out[:k]] == list(range(first, first + k))
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

    def _columns(
        self, slots: np.ndarray, dims: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sizes, planes, measures)`` of ``slots``, in their order:
        the published sizes, the ``dims`` coordinate planes (every
        dimension when None) and the measures, ``(k,)``, ``(nd, k,
        rows)`` and ``(k, rows)`` -- one take each from a lone chunk."""
        chunks = self._chunks
        if len(chunks) == 1:
            chunk = chunks[0]
            sizes = chunk.sizes[slots]  # before the rows: they may grow past it
            planes = chunk.coords[:, slots] if dims is None else chunk.coords[dims[:, None], slots]
            return sizes, planes, chunk.measures[slots]
        k = len(slots)
        nd = self.num_dims if dims is None else len(dims)
        sizes = np.empty(k, dtype=np.int64)
        planes = np.empty((nd, k, self.rows), dtype=np.int64)
        measures = np.empty((k, self.rows), dtype=np.float64)
        which = np.searchsorted(self._bases, slots, side="right") - 1
        for i in np.unique(which).tolist():
            chunk, sel = chunks[i], which == i
            at = slots[sel] - chunk.base
            sizes[sel] = chunk.sizes[at]
            planes[:, sel] = chunk.coords[:, at] if dims is None else chunk.coords[dims[:, None], at]
            measures[sel] = chunk.measures[at]
        return sizes, planes, measures

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
        sizes, planes, measures = self._columns(slots, dims)
        if len(planes) == 1:
            keep = (lo[0] <= planes[0]) & (planes[0] <= hi[0])
        else:
            keep = ((lo[:, None, None] <= planes) & (planes <= hi[:, None, None])).all(axis=0)
        keep &= self._live[sizes]
        return int(sizes.sum()), measures[keep]


class LeafColumns:
    """One leaf's rows: views of its slot in the tree's arena."""

    __slots__ = ("coords", "measures", "hwords", "agg", "slot", "_sizes", "_at")

    def __init__(self, chunk: _Chunk, slot: int):
        self.slot = slot
        self.bind(chunk)
        self.agg = Aggregate.empty()
        self.publish(0)  # a reused slot: its last leaf's size goes

    def bind(self, chunk: _Chunk) -> None:
        """Make the columns views of this slot in ``chunk``."""
        at = self.slot - chunk.base
        self.coords = chunk.coords[:, at].T
        self.measures = chunk.measures[at]
        self.hwords = chunk.hwords[at] if chunk.hwords is not None else None
        self._sizes, self._at = chunk.sizes, at

    @property
    def size(self) -> int:
        """Live rows: the size published in the arena."""
        return self._sizes.item(self._at)

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
        self._sizes[self._at] = size

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
