"""Minimum Describing Subset (MDS) keys.

The DC-tree / PDC-tree family uses *Minimum Describing Subsets* instead
of Minimum Bounding Rectangles: a node's key is a small set of hierarchy
regions per dimension rather than one interval per dimension.  Because
hierarchy prefixes map to contiguous leaf-id ranges (see
:mod:`repro.olap.hierarchy`), we represent an MDS as, per dimension, a
sorted list of disjoint closed intervals, capped at ``max_intervals``
entries.  When the cap is exceeded the two intervals separated by the
smallest gap are coalesced, which mirrors the DC-tree's collapse of
sibling entries into their parent (a parent's range is exactly the
concatenation of its children's ranges, so gap-minimal coalescing
reproduces the same behaviour on hierarchy-clustered data).

Compared to a single-interval MBR, an MDS stays tight on data that is
clustered in several separate hierarchy regions -- the property that
makes PDC trees scale to many dimensions (paper Fig. 5).

**Layout.**  A key is one ``(2, d, cap)`` int64 block: ``[0]`` the
interval starts and ``[1]`` the ends of each dimension, sorted, unused
slots holding :meth:`Box.empty`'s sentinels ``[max // 2, -1]`` (they
match no id and sort last).  The predicates are broadcasts over the
block; growth (:meth:`MDS._grow`) works on its ``tolist()``, as bisects
cost less than numpy calls at the few ids a node grows by per insert,
and writes the key back in place, only if it grew.  :meth:`MDS.stack`
stacks many keys into one ``(n, 2, d, cap)`` block; a tree directory
holds its children's keys so, each child's block a view of its row, and
a growth writes straight into the directory's block.  The kernels over
such a block (:meth:`MDS.classify` and kin) and the factories are
staticmethods, as on :class:`Box`: the trees and the image hold the
key class and call them on it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .keys import Box

__all__ = ["MDS", "DEFAULT_MAX_INTERVALS"]

DEFAULT_MAX_INTERVALS = 4

#: an unused slot, as (start, end)
_UNUSED = (np.iinfo(np.int64).max // 2, -1)


def _blank(shape: tuple) -> np.ndarray:
    """A ``(..., 2, d, cap)`` block of unused slots."""
    block = np.empty(shape, dtype=np.int64)
    block[..., 0, :, :] = _UNUSED[0]
    block[..., 1, :, :] = _UNUSED[1]
    return block


def _pad(starts: list[int], ends: list[int], cap: int) -> None:
    """Fill two interval lists up to ``cap`` slots with unused ones."""
    pad = cap - len(starts)
    starts += [_UNUSED[0]] * pad
    ends += [_UNUSED[1]] * pad


def _coalesce_smallest_gap(starts: list[int], ends: list[int]) -> None:
    """Merge the adjacent interval pair with the smallest gap, in place:
    the rightmost of equal gaps, so that the leftmost stay (the tie
    rule of :func:`_merge_values` and :meth:`MDS.of_segments`)."""
    best = 0
    best_gap = None
    for i in range(len(starts) - 1):
        gap = starts[i + 1] - ends[i]
        if best_gap is None or gap <= best_gap:
            best_gap = gap
            best = i
    ends[best] = ends[best + 1]
    del starts[best + 1], ends[best + 1]


def _insert_value(
    starts: list[int], ends: list[int], lo: int, hi: int, cap: int
) -> bool:
    """Insert interval [lo, hi] into the sorted disjoint intervals
    ``[starts[i], ends[i]]`` (two parallel lists, no unused slots).

    Returns True if the lists changed.  Merges overlapping/adjacent
    intervals and enforces the cap.
    """
    # Find insertion point by lower bound.
    idx = bisect_right(starts, lo)
    # Check the interval before: may already cover or touch [lo, hi].
    if idx > 0 and ends[idx - 1] >= lo - 1:
        if ends[idx - 1] >= hi:
            return False  # already covered
        idx -= 1
        ends[idx] = hi
    else:
        starts.insert(idx, lo)
        ends.insert(idx, hi)
    # Absorb following intervals that now overlap/touch.
    j = idx + 1
    while j < len(starts) and starts[j] <= ends[idx] + 1:
        ends[idx] = max(ends[idx], ends[j])
        del starts[j], ends[j]
    while len(starts) > cap:
        _coalesce_smallest_gap(starts, ends)
    return True


def _merge_values(
    starts: list[int], ends: list[int], col: list[int], cap: int
) -> tuple[list[int], list[int]]:
    """The intervals covering ``[starts[i], ends[i]]`` and every value
    of ``col``, as two new parallel lists.

    Unique values compress into runs of consecutive ids, the runs merge
    with the existing intervals in a single sweep, and the cap is
    enforced by keeping the ``cap - 1`` *largest* gaps as separators --
    merging one interval pair never changes any other gap, so this is
    the same endpoint set that repeated smallest-gap-first coalescing
    converges to.  Of equal gaps the leftmost are kept, the rule
    :meth:`MDS.of_segments` follows too.
    """
    if len(col) > 64:
        vals = np.unique(col)
        brk = np.nonzero(np.diff(vals) > 1)[0]
        s_idx = np.concatenate(([0], brk + 1))
        e_idx = np.concatenate((brk, [len(vals) - 1]))
        new = list(zip(vals[s_idx].tolist(), vals[e_idx].tolist()))
    else:
        svals = sorted(col)
        new = []
        lo = hi = svals[0]
        for v in svals[1:]:
            if v <= hi + 1:
                hi = v if v > hi else hi
            else:
                new.append((lo, hi))
                lo = hi = v
        new.append((lo, hi))
    pool = sorted(list(zip(starts, ends)) + new) if starts else new
    los, his = [pool[0][0]], [pool[0][1]]
    for lo, hi in pool[1:]:
        if lo <= his[-1] + 1:
            if hi > his[-1]:
                his[-1] = hi
        else:
            los.append(lo)
            his.append(hi)
    if len(los) <= cap:
        return los, his
    if cap == 1:  # no separator survives ([-0:] would keep them all)
        return los[:1], his[-1:]
    gaps = np.array(los[1:]) - np.array(his[:-1])
    keep = np.sort(np.argsort(-gaps, kind="stable")[: cap - 1]).tolist()
    return (
        los[:1] + [los[g + 1] for g in keep],
        [his[g] for g in keep] + his[-1:],
    )


class MDS:
    """A per-dimension set of disjoint intervals, capped in size."""

    __slots__ = ("_iv",)

    def __init__(
        self,
        intervals: Sequence[Sequence[Sequence[int]]],
        max_intervals: int = DEFAULT_MAX_INTERVALS,
    ):
        if max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")
        self._iv = _blank((2, len(intervals), max_intervals))
        for d, dim_ivs in enumerate(intervals):
            ivs = sorted(
                ((int(lo), int(hi)) for lo, hi in dim_ivs), key=lambda iv: iv[0]
            )
            starts, ends = [iv[0] for iv in ivs], [iv[1] for iv in ivs]
            if any(a >= b for a, b in zip(ends, starts[1:])):
                raise ValueError("intervals within a dimension must be disjoint")
            while len(starts) > max_intervals:
                _coalesce_smallest_gap(starts, ends)
            _pad(starts, ends, max_intervals)
            self._iv[:, d] = starts, ends

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(num_dims: int, max_intervals: int = DEFAULT_MAX_INTERVALS) -> "MDS":
        m = MDS.__new__(MDS)
        m._iv = _blank((2, num_dims, max_intervals))
        return m

    @staticmethod
    def from_point(
        coords: np.ndarray, max_intervals: int = DEFAULT_MAX_INTERVALS
    ) -> "MDS":
        m = MDS.empty(len(coords), max_intervals)
        m._iv[:, :, 0] = coords
        return m

    @staticmethod
    def from_box(box: Box, max_intervals: int = DEFAULT_MAX_INTERVALS) -> "MDS":
        m = MDS.empty(box.num_dims, max_intervals)
        if not box.is_empty():
            m._iv[0, :, 0] = box.lo
            m._iv[1, :, 0] = box.hi
        return m

    @staticmethod
    def of_segments(
        coords: np.ndarray,
        starts: np.ndarray,
        max_intervals: int = DEFAULT_MAX_INTERVALS,
    ) -> list["MDS"]:
        """What ``MDS.empty(d, cap).expand_points_inplace`` grows from
        each segment of an ``(n, d)`` array (rows ``starts[i]`` up to the
        next start), in one pass: per segment and dimension the sorted
        ids break into runs where not consecutive, joined across all but
        the ``cap - 1`` largest gaps (the leftmost of equal gaps kept)."""
        n, d = coords.shape
        k, cap = len(starts), max_intervals
        lens = np.diff(starts, append=n)
        width = int(lens.max())
        # every segment padded to ``width`` rows with its last row (an id
        # repeated changes no key), then one sorted row of ids per group
        pad = starts[:, None] + np.minimum(np.arange(width), lens[:, None] - 1)
        v = np.sort(coords[pad].transpose(0, 2, 1), axis=2).reshape(k * d, width)
        gap = np.diff(v, axis=1)
        brk = gap > 1
        # a group of more than ``cap`` runs keeps its cap - 1 widest breaks
        heavy = np.flatnonzero(brk.sum(axis=1) >= cap)
        gaps = np.where(brk[heavy], gap[heavy], 0)
        top = np.argsort(-gaps, axis=1, kind="stable")[:, : cap - 1]
        brk[heavy] = False
        brk[heavy[:, None], top] = True
        edge = np.ones((k * d, 1), dtype=bool)
        opens, closes = np.hstack([edge, brk]), np.hstack([brk, edge])
        slot = np.cumsum(opens, axis=1) - 1
        blocks = _blank((k, 2, d, cap))
        for side, mask in enumerate((opens, closes)):
            g, j = np.nonzero(mask)
            blocks[g // d, side, g % d, slot[g, j]] = v[g, j]
        keys = [MDS.__new__(MDS) for _ in range(k)]
        for key, block in zip(keys, blocks):
            key._iv = block
        return keys

    @staticmethod
    def adopt(key) -> "MDS":
        """A key of either kind as an MDS of the default cap (a copy): a
        box as one interval per dimension; a wire key carrying another
        cap coalesced to it."""
        if not isinstance(key, MDS):
            return MDS.from_box(key)
        if key.max_intervals == DEFAULT_MAX_INTERVALS:
            return key.copy()
        return MDS(key.intervals)

    # -- the block ---------------------------------------------------------

    @property
    def max_intervals(self) -> int:
        return self._iv.shape[2]

    @property
    def intervals(self) -> list[list[list[int]]]:
        """The per-dimension ``[lo, hi]`` lists (a read-only copy)."""
        return [[list(iv) for iv in ivs] for ivs in self.to_tuple()]

    def _hits(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``(..., d, cap)`` mask: the slot of dimension ``d`` that
        holds all of ``[lo, hi]`` (both ``(..., d)``) -- at most one,
        the intervals of a dimension being disjoint, except that every
        slot holds an unused one, which so never fails a cover test."""
        starts, ends = self._iv
        return (starts <= lo[..., None]) & (hi[..., None] <= ends)

    # -- predicates ----------------------------------------------------------

    @property
    def num_dims(self) -> int:
        return self._iv.shape[1]

    def is_empty(self) -> bool:
        return bool((self._iv[0, :, 0] > self._iv[1, :, 0]).any())

    def covers_point(self, coords: Sequence[int]) -> bool:
        c = np.asarray(coords, dtype=np.int64)
        return np.count_nonzero(self._hits(c, c)) == c.size  # one per id

    def intersects_box(self, box: Box) -> bool:
        """True if the product set shares at least one point with ``box``."""
        if box.is_empty():
            return False
        starts, ends = self._iv
        hit = (starts <= box.hi[:, None]) & (box.lo[:, None] <= ends)
        return bool(hit.any(axis=1).all())

    def covers(self, other: "MDS") -> bool:
        """True if every interval of ``other`` lies inside this MDS."""
        if other.is_empty():
            return True
        return bool(self._hits(other._iv[0].T, other._iv[1].T).any(axis=2).all())

    def within_box(self, box: Box) -> bool:
        """True if every interval in every dimension lies inside ``box``;
        an empty key is within no box."""
        if self.is_empty() or box.is_empty():
            return False
        first, last = self._iv[0, :, 0], self._iv[1].max(axis=1)
        return not ((first < box.lo) | (last > box.hi)).any()

    # -- measures --------------------------------------------------------

    def side_lengths(self) -> np.ndarray:
        """Per-dimension covered length (sum of interval sizes)."""
        starts, ends = self._iv
        return np.maximum(ends - starts + 1, 0).sum(axis=1).astype(np.float64)

    def log_volume(self) -> float:
        if self.is_empty():
            return float("-inf")
        return float(np.sum(np.log2(self.side_lengths())))

    def overlap_lengths(self, other: "MDS") -> np.ndarray:
        """Per-dimension length of the intersection of interval unions."""
        (a_lo, a_hi), (b_lo, b_hi) = self._iv, other._iv
        # intervals of one key are disjoint, so the pairwise pieces are too
        lo = np.maximum(a_lo[:, :, None], b_lo[:, None, :])
        hi = np.minimum(a_hi[:, :, None], b_hi[:, None, :])
        return np.maximum(hi - lo + 1, 0).sum(axis=(1, 2)).astype(np.float64)

    def log_overlap_volume(self, other: "MDS") -> float:
        """log2 of the intersection volume with ``other``; -inf if disjoint."""
        lengths = self.overlap_lengths(other)
        if (lengths <= 0).any():
            return float("-inf")
        return float(np.sum(np.log2(lengths)))

    # -- combination -------------------------------------------------------

    def _grow(self, lo: list[int], hi: list[int], los: list, his: list) -> bool:
        """Grow to hold each ``[los[d][j], his[d][j]]`` in dimension ``d``:
        the ids of a column of rows (``his is los``) or another key's
        slots, ``[lo[d], hi[d]]`` spanning them.  A dimension is held if a
        bisect finds one interval holding the span, or one per id or slot
        finds each held (unused slots sort last and hold no id, only an
        unused slot).  One that is not runs :func:`_merge_values` on its
        ids for several rows, else :func:`_insert_value` on what it lacks."""
        block = self._iv.tolist()
        cap = self._iv.shape[2]
        grown = []
        for d, (starts, ends, a, b) in enumerate(zip(*block, lo, hi)):
            i = bisect_right(starts, a)
            if i and ends[i - 1] >= b:
                continue  # one interval holds the span
            lacking = []
            for a, b in zip(los[d], his[d]):
                i = bisect_right(starts, a)
                if not i or ends[i - 1] < b:
                    lacking.append((a, b))
            if not lacking:
                continue
            grown.append(d)
            used = cap - ends.count(_UNUSED[1])
            del starts[used:], ends[used:]
            if his is los and len(los[d]) > 1:
                starts[:], ends[:] = _merge_values(starts, ends, los[d], cap)
            else:
                for a, b in lacking:
                    _insert_value(starts, ends, a, b, cap)
            _pad(starts, ends, cap)
        if not grown:
            return False
        span = slice(grown[0], grown[-1] + 1)
        self._iv[:, span] = block[0][span], block[1][span]
        return True

    def expand_point_inplace(self, coords: Sequence[int]) -> bool:
        row = np.asarray(coords, dtype=np.int64).tolist()
        ids = list(zip(row))
        return self._grow(row, row, ids, ids)

    def expand_points_inplace(self, coords: np.ndarray) -> bool:
        """Grow to cover every row of an ``(n, d)`` array."""
        cols = np.asarray(coords, dtype=np.int64).T.tolist()
        if not cols or not cols[0]:
            return False
        return self._grow(list(map(min, cols)), list(map(max, cols)), cols, cols)

    def expand_inplace(self, other: "MDS") -> bool:
        starts, ends = other._iv.tolist()
        return self._grow([s[0] for s in starts], list(map(max, ends)), starts, ends)

    # -- conversions ---------------------------------------------------------

    def mbr(self) -> Box:
        """Single-interval bounding box of the MDS."""
        if self.is_empty():
            return Box.empty(self.num_dims)
        return Box(self._iv[0, :, 0], self._iv[1].max(axis=1))

    def copy(self) -> "MDS":
        m = MDS.__new__(MDS)
        m._iv = self._iv.copy()
        return m

    @staticmethod
    def stack(keys: Sequence["MDS"], bind: bool = False) -> np.ndarray:
        """The ``(n, 2, d, cap)`` block of ``n`` keys of one cap, a copy;
        with ``bind`` each key's block becomes a view of its row, so the
        key grows inside the stack."""
        block = np.stack([k._iv for k in keys])
        if bind:
            for key, row in zip(keys, block):
                key._iv = row
        return block

    # -- block kernels: ``stack``'s ``(m, 2, d, cap)`` block of ``m`` keys,
    # each answered as by the key's own method (see :class:`Box`)

    @staticmethod
    def intersects_many(
        block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        # in every dimension some interval overlaps the box's range (an
        # empty key has a dimension with none)
        hit = (block[:, 0] <= qhi[:, None]) & (qlo[:, None] <= block[:, 1])
        return hit.any(axis=2).all(axis=1)

    @staticmethod
    def covers_points_many(block: np.ndarray, coords: np.ndarray) -> np.ndarray:
        c = coords[:, None, :, None]
        return ((block[:, 0] <= c) & (c <= block[:, 1])).any(axis=3).all(axis=2)

    @staticmethod
    def classify(
        block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """A key lies inside a box iff each of its slots does, the
        unused ones (``[max // 2, -1]``) passing; two broadcasts over
        the whole block, starts and ends at once."""
        below = block <= qhi[:, None]
        above = block >= qlo[:, None]
        hit = (below[:, 0] & above[:, 1]).any(axis=2).all(axis=1)
        within = (above[:, 0] & below[:, 1]).reshape(len(block), -1).all(axis=1)
        return hit, within & hit

    def to_tuple(self) -> tuple:
        """Nested tuples of Python ints (znode values, pickles, ``==``)."""
        return tuple(
            tuple((lo, hi) for lo, hi in zip(starts, ends) if lo <= hi)
            for starts, ends in zip(*self._iv.tolist())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MDS):
            return NotImplemented
        return self.to_tuple() == other.to_tuple()

    def __hash__(self) -> int:
        return hash(self.to_tuple())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MDS({self.to_tuple()})"
