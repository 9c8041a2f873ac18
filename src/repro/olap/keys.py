"""Spatial keys over hierarchical id spaces: boxes (MBRs).

A :class:`Box` is a per-dimension closed interval ``[lo_i, hi_i]`` in the
leaf id space of each dimension.  Because hierarchy prefixes map to
contiguous ranges (see :mod:`repro.olap.hierarchy`), a box can represent
any "rectangular" hierarchical region, and Minimum Bounding Rectangles of
hierarchical data are exact in this space.

A box and an MDS key (:mod:`repro.olap.mds`) answer one key interface
-- ``covers_point``, ``covers``, ``intersects_box``, ``within_box``,
``log_volume``, ``log_overlap_volume``, the ``expand_*_inplace``
growths, ``mbr`` and ``copy`` -- which the trees and the server image
call on the key itself, whatever its kind.  What needs the kind but no
key in hand is a staticmethod of its class, which the trees and the
image hold in place of a key kind: the factories (``empty``,
``from_point``, ``of_segments``, ``adopt``), ``stack`` -- many keys in
one block, as a tree directory holds its children's keys, each child's
key a view of its row -- and the kernels over a block
(``intersects_many``, ``covers_points_many``, ``classify``).

All operations are numpy-vectorised over dimensions.  Volumes are
computed in float64: dimension ranges can reach 2**62, so products are
large but comfortably within float64 range for realistic dimension
counts (<= 64 dims * 62 bits would overflow; we clamp via log-volume
where needed).
"""

from __future__ import annotations

from operator import le
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Box", "point_box", "union_all"]


class Box:
    """A closed axis-aligned box over int64 coordinates.

    An *empty* box is represented by ``lo > hi`` in every dimension and is
    the identity for :meth:`expand_inplace`; every empty box of ``d``
    dimensions equals every other.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, *, copy: bool = True):
        # ``np.array(copy=False)`` means "never copy" on NumPy >= 2 and
        # raises on lists and int32 arrays
        make = np.array if copy else np.asarray
        lo = make(lo, dtype=np.int64)
        hi = make(hi, dtype=np.int64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-d arrays of equal length")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty(num_dims: int) -> "Box":
        lo = np.full(num_dims, np.iinfo(np.int64).max // 2, dtype=np.int64)
        hi = np.full(num_dims, -1, dtype=np.int64)
        return Box(lo, hi, copy=False)

    @staticmethod
    def from_point(coords: np.ndarray) -> "Box":
        c = np.asarray(coords, dtype=np.int64)
        return Box(c.copy(), c.copy(), copy=False)

    @staticmethod
    def from_points(coords: np.ndarray) -> "Box":
        """Bounding box of an ``(n, d)`` coordinate array (n >= 1)."""
        c = np.asarray(coords, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] == 0:
            raise ValueError("need a non-empty (n, d) array")
        return Box(c.min(axis=0), c.max(axis=0), copy=False)

    @staticmethod
    def of_segments(coords: np.ndarray, starts: np.ndarray) -> list["Box"]:
        """In one pass, the box of each segment of an ``(n, d)`` array
        (rows ``starts[i]`` up to the next start)."""
        lo = np.minimum.reduceat(coords, starts)
        hi = np.maximum.reduceat(coords, starts)
        return [Box(a, b, copy=False) for a, b in zip(lo, hi)]

    @staticmethod
    def adopt(key) -> "Box":
        """A key of either kind as a box (a copy): its bounding box."""
        return key.mbr()

    # -- predicates ----------------------------------------------------

    @property
    def num_dims(self) -> int:
        return self.lo.shape[0]

    def is_empty(self) -> bool:
        return bool((self.lo > self.hi).any())

    def covers_point(self, coords: np.ndarray) -> bool:
        c = np.asarray(coords)
        return bool(((self.lo <= c) & (c <= self.hi)).all())

    def contains_points(self, coords: np.ndarray) -> np.ndarray:
        """Vectorised membership for an ``(n, d)`` array -> bool mask."""
        c = np.asarray(coords)
        return ((self.lo[None, :] <= c) & (c <= self.hi[None, :])).all(axis=1)

    def covers(self, other: "Box") -> bool:
        """True if ``other`` lies inside this box (an empty one does)."""
        if other.is_empty():
            return True
        return bool(
            ((self.lo <= other.lo) & (other.hi <= self.hi)).all()
        )

    def intersects_box(self, other: "Box") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        return bool(
            ((self.lo <= other.hi) & (other.lo <= self.hi)).all()
        )

    def within_box(self, box: "Box") -> bool:
        """True if non-empty and inside ``box``: an empty key is within
        no box."""
        return not self.is_empty() and box.covers(self)

    # -- measures --------------------------------------------------------

    def side_lengths(self) -> np.ndarray:
        """Per-dimension extent as float64 counts (0 if empty)."""
        return np.maximum(
            self.hi.astype(np.float64) - self.lo.astype(np.float64) + 1.0, 0.0
        )

    def log_volume(self) -> float:
        """log2 of the volume; ``-inf`` for empty boxes.  Overflow-safe."""
        if self.is_empty():
            return float("-inf")
        return float(np.sum(np.log2(self.side_lengths())))

    def log_overlap_volume(self, other: "Box") -> float:
        """log2 of intersection volume; ``-inf`` if disjoint."""
        if self.is_empty() or other.is_empty():
            return float("-inf")
        lo = np.maximum(self.lo, other.lo).astype(np.float64)
        hi = np.minimum(self.hi, other.hi).astype(np.float64)
        side = hi - lo + 1.0
        if (side <= 0).any():
            return float("-inf")
        return float(np.sum(np.log2(side)))

    # -- combination ------------------------------------------------------

    def _grow(self, lo: np.ndarray, hi: np.ndarray) -> bool:
        """Grow to cover ``[lo, hi]``; True if anything changed.  The
        covered test runs on Python lists: as numpy calls on d-element
        arrays it cost several times more."""
        if all(map(le, self.lo.tolist(), lo.tolist())) and all(
            map(le, hi.tolist(), self.hi.tolist())
        ):
            return False
        if self.is_empty():
            self.lo[:] = lo
            self.hi[:] = hi
        else:
            np.minimum(self.lo, lo, out=self.lo)
            np.maximum(self.hi, hi, out=self.hi)
        return True

    def expand_inplace(self, other: "Box") -> bool:
        """Grow to cover ``other``; return True if anything changed."""
        return not other.is_empty() and self._grow(other.lo, other.hi)

    def expand_point_inplace(self, coords: np.ndarray) -> bool:
        c = np.asarray(coords, dtype=np.int64)
        return self._grow(c, c)

    def expand_points_inplace(self, coords: np.ndarray) -> bool:
        """Grow to cover every row of an ``(n, d)`` array; True if changed."""
        c = np.asarray(coords, dtype=np.int64)
        return c.shape[0] > 0 and self._grow(c.min(axis=0), c.max(axis=0))

    def center(self) -> np.ndarray:
        return (self.lo.astype(np.float64) + self.hi.astype(np.float64)) / 2.0

    # -- misc -------------------------------------------------------------

    def copy(self) -> "Box":
        return Box(self.lo, self.hi, copy=True)

    def mbr(self) -> "Box":
        """The single-interval bounding box: a copy (as for MDS)."""
        return self.copy()

    @staticmethod
    def stack(boxes: Sequence["Box"], bind: bool = False) -> np.ndarray:
        """The ``(n, 2, d)`` block of ``n`` boxes' bounds, a copy; with
        ``bind`` each box's ``lo``/``hi`` become views of its row, so
        the box grows inside the block."""
        block = np.concatenate(
            [a for b in boxes for a in (b.lo, b.hi)]
        ).reshape(len(boxes), 2, -1)
        if bind:
            for b, row in zip(boxes, block):
                b.lo, b.hi = row
        return block

    # -- block kernels (the read engine's and the image's tests) ----------
    #
    # A block is ``stack``'s ``(m, 2, d)`` bounds of ``m`` boxes; each
    # kernel answers per box what the box's own method would.

    @staticmethod
    def intersects_many(
        block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        """``(m,)`` mask equal to ``key.intersects_box(box)`` per key,
        ``qlo``/``qhi`` the ``(d,)`` bounds of a non-empty box."""
        lo, hi = block[:, 0], block[:, 1]
        # an empty box has lo > hi in some dimension: it meets no box
        return ((lo <= qhi) & (qlo <= hi) & (lo <= hi)).all(axis=1)

    @staticmethod
    def covers_points_many(block: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """``(n, m)`` mask equal to ``key.covers_point(row)`` for every
        row of an ``(n, d)`` array against every key of the block."""
        c = coords[:, None, :]
        return ((block[:, 0] <= c) & (c <= block[:, 1])).all(axis=2)

    @staticmethod
    def classify(
        block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide all ``m`` keys of a block against one non-empty box:
        ``(hit, within)``, two ``(m,)`` masks equal per key to
        ``key.intersects_box(box)`` and ``key.within_box(box)``.  An
        empty key passes the bounds test of *within*; ``& hit`` drops
        it."""
        hit = Box.intersects_many(block, qlo, qhi)
        within = ((qlo <= block[:, 0]) & (block[:, 1] <= qhi)).all(axis=1)
        return hit, within & hit

    def to_tuple(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(int(x) for x in self.lo), tuple(int(x) for x in self.hi)

    @staticmethod
    def from_tuple(t: tuple[Sequence[int], Sequence[int]]) -> "Box":
        return Box(t[0], t[1])

    def _identity(self):
        """What ``==`` and ``hash`` compare: an empty box is its
        dimension count, whatever its bounds."""
        return self.num_dims if self.is_empty() else self.to_tuple()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty():
            return f"Box.empty({self.num_dims})"
        pairs = ", ".join(f"[{l},{h}]" for l, h in zip(self.lo, self.hi))
        return f"Box({pairs})"


def point_box(coords: Iterable[int]) -> Box:
    """Degenerate box covering a single point."""
    return Box.from_point(np.fromiter(coords, dtype=np.int64))


def union_all(keys: Iterable, num_dims: int | None = None):
    """The union of keys of one kind, boxes or MDS keys: an empty key of
    that kind grown by each in turn.  Of no keys, the empty box of
    ``num_dims`` dimensions."""
    keys = list(keys)
    if not keys:
        if num_dims is None:
            raise ValueError("cannot union zero keys without num_dims")
        return Box.empty(num_dims)
    acc = type(keys[0]).empty(keys[0].num_dims)
    for k in keys:
        acc.expand_inplace(k)
    return acc
