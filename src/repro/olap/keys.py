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
call on the key itself, whatever its kind.

All operations are numpy-vectorised over dimensions.  Volumes are
computed in float64: dimension ranges can reach 2**62, so products are
large but comfortably within float64 range for realistic dimension
counts (<= 64 dims * 62 bits would overflow; we clamp via log-volume
where needed).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Box",
    "PackedKeys",
    "point_box",
    "empty_like",
    "union_all",
    "pack_boxes",
    "boxes_intersect_many",
]


class Box:
    """A closed axis-aligned box over int64 coordinates.

    An *empty* box is represented by ``lo > hi`` in every dimension and is
    the identity for :meth:`expand_inplace`; every empty box of ``d``
    dimensions equals every other.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, *, copy: bool = True):
        lo = np.array(lo, dtype=np.int64, copy=copy)
        hi = np.array(hi, dtype=np.int64, copy=copy)
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

    def expand_inplace(self, other: "Box") -> bool:
        """Grow to cover ``other``; return True if anything changed."""
        if other.is_empty():
            return False
        if self.is_empty():
            self.lo[:] = other.lo
            self.hi[:] = other.hi
            return True
        changed = bool((other.lo < self.lo).any() or (other.hi > self.hi).any())
        np.minimum(self.lo, other.lo, out=self.lo)
        np.maximum(self.hi, other.hi, out=self.hi)
        return changed

    def expand_point_inplace(self, coords: np.ndarray) -> bool:
        c = np.asarray(coords, dtype=np.int64)
        if self.is_empty():
            self.lo[:] = c
            self.hi[:] = c
            return True
        changed = bool((c < self.lo).any() or (c > self.hi).any())
        np.minimum(self.lo, c, out=self.lo)
        np.maximum(self.hi, c, out=self.hi)
        return changed

    def expand_points_inplace(self, coords: np.ndarray) -> bool:
        """Grow to cover every row of an ``(n, d)`` array; True if changed."""
        c = np.asarray(coords, dtype=np.int64)
        if c.shape[0] == 0:
            return False
        lo = c.min(axis=0)
        hi = c.max(axis=0)
        if self.is_empty():
            self.lo[:] = lo
            self.hi[:] = hi
            return True
        changed = bool((lo < self.lo).any() or (hi > self.hi).any())
        np.minimum(self.lo, lo, out=self.lo)
        np.maximum(self.hi, hi, out=self.hi)
        return changed

    def center(self) -> np.ndarray:
        return (self.lo.astype(np.float64) + self.hi.astype(np.float64)) / 2.0

    # -- misc -------------------------------------------------------------

    def copy(self) -> "Box":
        return Box(self.lo, self.hi, copy=True)

    def mbr(self) -> "Box":
        """The single-interval bounding box: a copy (as for MDS)."""
        return self.copy()

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


class PackedKeys:
    """Struct-of-arrays snapshot of ``m`` node keys for broadcast pruning.

    ``lo``/``hi`` are the ``(m, d)`` MBR summaries of each key and
    ``empty`` flags keys with no content; these three drive the shared
    *within* test (a key lies inside a query box iff its MBR does).
    MDS packs additionally carry the dense interval unions: ``ilo`` /
    ``ihi`` are the ``(m, d, cap)`` interval bounds, unused slots never
    matching (:func:`repro.olap.mds.pack_mds`; ``lo`` is then a view of
    ``ilo``).
    """

    __slots__ = ("lo", "hi", "empty", "ilo", "ihi")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        empty: np.ndarray,
        ilo: np.ndarray | None = None,
        ihi: np.ndarray | None = None,
    ):
        self.lo = lo
        self.hi = hi
        self.empty = empty
        self.ilo = ilo
        self.ihi = ihi

    @property
    def nbytes(self) -> int:
        """Buffer bytes of the snapshot (resident-memory accounting),
        each owned buffer once however many of the fields view it."""
        owned = {}
        for a in (self.lo, self.hi, self.empty, self.ilo, self.ihi):
            if a is not None:
                buf = a if a.base is None else a.base
                owned[id(buf)] = buf.nbytes
        return sum(owned.values())


def pack_boxes(keys: Sequence[Box], num_dims: int) -> PackedKeys:
    """Pack ``m`` Box keys into ``(m, d)`` lo/hi arrays plus empty flags."""
    m = len(keys)
    lo = np.empty((m, num_dims), dtype=np.int64)
    hi = np.empty((m, num_dims), dtype=np.int64)
    for i, k in enumerate(keys):
        lo[i] = k.lo
        hi[i] = k.hi
    empty = (lo > hi).any(axis=1)
    return PackedKeys(lo, hi, empty)


def boxes_intersect_many(
    packed: PackedKeys, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """``(m,)`` intersection mask of one query box vs m packed MBRs.

    ``qlo``/``qhi`` are the ``(d,)`` bounds of a *non-empty* box; on
    those it matches :meth:`Box.intersects_box` exactly (empty keys
    intersect nothing).
    """
    hit = ((packed.lo <= qhi) & (qlo <= packed.hi)).all(axis=1)
    hit &= ~packed.empty
    return hit


def point_box(coords: Iterable[int]) -> Box:
    """Degenerate box covering a single point."""
    return Box.from_point(np.fromiter(coords, dtype=np.int64))


def empty_like(box: Box) -> Box:
    return Box.empty(box.num_dims)


def union_all(boxes: Iterable[Box], num_dims: int | None = None) -> Box:
    """Union of an iterable of boxes (empty box if the iterable is empty)."""
    it = iter(boxes)
    try:
        first = next(it)
    except StopIteration:
        if num_dims is None:
            raise ValueError("cannot union zero boxes without num_dims")
        return Box.empty(num_dims)
    acc = first.copy()
    for b in it:
        acc.expand_inplace(b)
    return acc
