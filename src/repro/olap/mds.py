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
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .keys import Box, PackedKeys

__all__ = ["MDS", "DEFAULT_MAX_INTERVALS", "pack_mds", "mds_intersect_many"]

DEFAULT_MAX_INTERVALS = 4


def _coalesce_smallest_gap(ivs: list[list[int]]) -> None:
    """Merge the adjacent interval pair with the smallest gap, in place."""
    best = 0
    best_gap = None
    for i in range(len(ivs) - 1):
        gap = ivs[i + 1][0] - ivs[i][1]
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = i
    ivs[best][1] = ivs[best + 1][1]
    del ivs[best + 1]


def _insert_value(ivs: list[list[int]], lo: int, hi: int, cap: int) -> bool:
    """Insert interval [lo, hi] into a sorted disjoint interval list.

    Returns True if the list changed.  Merges overlapping/adjacent
    intervals and enforces the cap.
    """
    n = len(ivs)
    # Find insertion point by lower bound.
    idx = bisect_right(ivs, lo, key=lambda iv: iv[0])
    # Check the interval before: may already cover or touch [lo, hi].
    if idx > 0 and ivs[idx - 1][1] >= lo - 1:
        prev = ivs[idx - 1]
        if prev[1] >= hi:
            return False  # already covered
        prev[1] = hi
        idx -= 1
    else:
        ivs.insert(idx, [lo, hi])
    # Absorb following intervals that now overlap/touch.
    cur = ivs[idx]
    j = idx + 1
    while j < len(ivs) and ivs[j][0] <= cur[1] + 1:
        cur[1] = max(cur[1], ivs[j][1])
        del ivs[j]
    while len(ivs) > cap:
        _coalesce_smallest_gap(ivs)
    return True


class MDS:
    """A per-dimension set of disjoint intervals, capped in size."""

    __slots__ = ("intervals", "max_intervals")

    def __init__(
        self,
        intervals: Sequence[Sequence[Sequence[int]]],
        max_intervals: int = DEFAULT_MAX_INTERVALS,
    ):
        if max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")
        self.max_intervals = max_intervals
        self.intervals: list[list[list[int]]] = [
            sorted([list(map(int, iv)) for iv in dim_ivs], key=lambda iv: iv[0])
            for dim_ivs in intervals
        ]
        for dim_ivs in self.intervals:
            for a, b in zip(dim_ivs, dim_ivs[1:]):
                if a[1] >= b[0]:
                    raise ValueError("intervals within a dimension must be disjoint")
            while len(dim_ivs) > max_intervals:
                _coalesce_smallest_gap(dim_ivs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(num_dims: int, max_intervals: int = DEFAULT_MAX_INTERVALS) -> "MDS":
        m = MDS.__new__(MDS)
        m.max_intervals = max_intervals
        m.intervals = [[] for _ in range(num_dims)]
        return m

    @staticmethod
    def from_point(
        coords: np.ndarray, max_intervals: int = DEFAULT_MAX_INTERVALS
    ) -> "MDS":
        m = MDS.empty(len(coords), max_intervals)
        m.expand_point_inplace(coords)
        return m

    @staticmethod
    def from_box(box: Box, max_intervals: int = DEFAULT_MAX_INTERVALS) -> "MDS":
        m = MDS.empty(box.num_dims, max_intervals)
        if not box.is_empty():
            for d in range(box.num_dims):
                m.intervals[d].append([int(box.lo[d]), int(box.hi[d])])
        return m

    # -- predicates ----------------------------------------------------------

    @property
    def num_dims(self) -> int:
        return len(self.intervals)

    def is_empty(self) -> bool:
        return any(len(ivs) == 0 for ivs in self.intervals)

    def covers_point(self, coords: Sequence[int]) -> bool:
        for d, c in enumerate(coords):
            c = int(c)
            ivs = self.intervals[d]
            idx = bisect_right(ivs, c, key=lambda iv: iv[0]) - 1
            if idx < 0 or ivs[idx][1] < c:
                return False
        return True

    def intersects_box(self, box: Box) -> bool:
        """True if the product set shares at least one point with ``box``."""
        if self.is_empty() or box.is_empty():
            return False
        for d in range(self.num_dims):
            qlo, qhi = int(box.lo[d]), int(box.hi[d])
            if not any(iv[0] <= qhi and qlo <= iv[1] for iv in self.intervals[d]):
                return False
        return True

    def covers(self, other: "MDS") -> bool:
        """True if every interval of ``other`` lies inside this MDS."""
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        for d in range(self.num_dims):
            mine = self.intervals[d]
            for iv in other.intervals[d]:
                idx = bisect_right(mine, iv[0], key=lambda x: x[0]) - 1
                if idx < 0 or mine[idx][1] < iv[1]:
                    return False
        return True

    def within_box(self, box: Box) -> bool:
        """True if every interval in every dimension lies inside ``box``."""
        if self.is_empty():
            return True
        if box.is_empty():
            return False
        for d in range(self.num_dims):
            qlo, qhi = int(box.lo[d]), int(box.hi[d])
            ivs = self.intervals[d]
            if ivs[0][0] < qlo or ivs[-1][1] > qhi:
                return False
        return True

    # -- measures --------------------------------------------------------

    def side_lengths(self) -> np.ndarray:
        """Per-dimension covered length (sum of interval sizes)."""
        return np.array(
            [
                float(sum(iv[1] - iv[0] + 1 for iv in ivs))
                for ivs in self.intervals
            ]
        )

    def log_volume(self) -> float:
        if self.is_empty():
            return float("-inf")
        return float(np.sum(np.log2(self.side_lengths())))

    def overlap_lengths(self, other: "MDS") -> np.ndarray:
        """Per-dimension length of the intersection of interval unions."""
        out = np.zeros(self.num_dims)
        for d in range(self.num_dims):
            a = self.intervals[d]
            b = other.intervals[d]
            i = j = 0
            total = 0
            while i < len(a) and j < len(b):
                lo = max(a[i][0], b[j][0])
                hi = min(a[i][1], b[j][1])
                if lo <= hi:
                    total += hi - lo + 1
                if a[i][1] < b[j][1]:
                    i += 1
                else:
                    j += 1
            out[d] = float(total)
        return out

    def log_overlap_volume(self, other: "MDS") -> float:
        """log2 of the intersection volume with ``other``; -inf if disjoint."""
        lengths = self.overlap_lengths(other)
        if (lengths <= 0).any():
            return float("-inf")
        return float(np.sum(np.log2(lengths)))

    # -- combination -------------------------------------------------------

    def expand_point_inplace(self, coords: Sequence[int]) -> bool:
        changed = False
        for d, c in enumerate(coords):
            c = int(c)
            if _insert_value(self.intervals[d], c, c, self.max_intervals):
                changed = True
        return changed

    def expand_points_inplace(self, coords: np.ndarray) -> bool:
        """Grow to cover every row of an ``(n, d)`` array in one pass.

        Per dimension: unique values compress into runs of consecutive
        ids, the runs merge with the existing interval list in a single
        sweep, and the cap is enforced by keeping the ``cap - 1``
        *largest* gaps as separators -- merging one interval pair never
        changes any other gap, so this is the same endpoint set that
        repeated smallest-gap-first coalescing converges to (up to tie
        order; any coalescing is a valid cover).
        """
        c = np.asarray(coords, dtype=np.int64)
        n = c.shape[0]
        if n == 0:
            return False
        if n == 1:
            return self.expand_point_inplace(c[0])
        # cheapest fast path: one existing interval per dimension covers
        # the whole run span (true for almost every non-leaf node)
        lo_vec = c.min(axis=0)
        hi_vec = c.max(axis=0)
        for d in range(self.num_dims):
            lo = lo_vec[d]
            hi = hi_vec[d]
            for iv in self.intervals[d]:
                if iv[0] <= lo and hi <= iv[1]:
                    break
            else:
                break
        else:
            return False
        changed = False
        cap = self.max_intervals
        for d in range(self.num_dims):
            ivs = self.intervals[d]
            col = c[:, d]
            if ivs:
                # fast path: every value already covered -> no change
                starts = np.fromiter(
                    (iv[0] for iv in ivs), np.int64, len(ivs)
                )
                pos = np.searchsorted(starts, col, side="right") - 1
                if (pos >= 0).all():
                    ends = np.fromiter(
                        (iv[1] for iv in ivs), np.int64, len(ivs)
                    )
                    if (col <= ends[pos]).all():
                        continue
            if n > 64:
                vals = np.unique(col)
                brk = np.nonzero(np.diff(vals) > 1)[0]
                s_idx = np.concatenate(([0], brk + 1))
                e_idx = np.concatenate((brk, [len(vals) - 1]))
                new = [
                    [int(vals[s]), int(vals[e])]
                    for s, e in zip(s_idx, e_idx)
                ]
            else:
                svals = sorted(int(v) for v in col)
                new = []
                lo = hi = svals[0]
                for v in svals[1:]:
                    if v <= hi + 1:
                        hi = v if v > hi else hi
                    else:
                        new.append([lo, hi])
                        lo = hi = v
                new.append([lo, hi])
            pool = sorted(ivs + new) if ivs else new
            merged = [pool[0][:]]
            for lo, hi in pool[1:]:
                if lo <= merged[-1][1] + 1:
                    if hi > merged[-1][1]:
                        merged[-1][1] = hi
                else:
                    merged.append([lo, hi])
            if len(merged) > cap:
                gaps = np.array(
                    [
                        merged[i + 1][0] - merged[i][1]
                        for i in range(len(merged) - 1)
                    ]
                )
                keep = np.sort(np.argpartition(gaps, -(cap - 1))[-(cap - 1):])
                out = []
                start = merged[0][0]
                for g in keep:
                    out.append([start, merged[g][1]])
                    start = merged[g + 1][0]
                out.append([start, merged[-1][1]])
                merged = out
            if merged != ivs:
                ivs[:] = merged
                changed = True
        return changed

    def expand_inplace(self, other: "MDS") -> bool:
        changed = False
        for d in range(self.num_dims):
            for iv in other.intervals[d]:
                if _insert_value(
                    self.intervals[d], iv[0], iv[1], self.max_intervals
                ):
                    changed = True
        return changed

    def expand_box_inplace(self, box: Box) -> bool:
        if box.is_empty():
            return False
        changed = False
        for d in range(box.num_dims):
            if _insert_value(
                self.intervals[d],
                int(box.lo[d]),
                int(box.hi[d]),
                self.max_intervals,
            ):
                changed = True
        return changed

    def union(self, other: "MDS") -> "MDS":
        m = self.copy()
        m.expand_inplace(other)
        return m

    # -- conversions ---------------------------------------------------------

    def mbr(self) -> Box:
        """Single-interval bounding box of the MDS."""
        if self.is_empty():
            return Box.empty(self.num_dims)
        lo = np.array([ivs[0][0] for ivs in self.intervals], dtype=np.int64)
        hi = np.array([ivs[-1][1] for ivs in self.intervals], dtype=np.int64)
        return Box(lo, hi, copy=False)

    def copy(self) -> "MDS":
        m = MDS.__new__(MDS)
        m.max_intervals = self.max_intervals
        m.intervals = [[iv.copy() for iv in ivs] for ivs in self.intervals]
        return m

    def to_tuple(self) -> tuple:
        return tuple(
            tuple((iv[0], iv[1]) for iv in ivs) for ivs in self.intervals
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MDS):
            return NotImplemented
        return self.to_tuple() == other.to_tuple()

    def __hash__(self) -> int:
        return hash(self.to_tuple())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MDS({self.to_tuple()})"


def pack_mds(keys: Sequence[MDS], num_dims: int) -> PackedKeys:
    """Pack ``m`` MDS keys into a flattened interval-union snapshot.

    The MBR summary (lo/hi/empty) feeds the shared within test; the
    flattened ``ilo``/``ihi``/``dim_idx``/``offsets`` arrays drive the
    exact per-interval intersection test.  A ``(key, dim)`` segment with
    no intervals (only possible on empty keys) gets a dummy ``[0, -1]``
    interval so every ``reduceat`` segment is non-empty; the dummy can
    never match (lo > hi) and empty keys are masked out anyway.
    """
    m = len(keys)
    lo = np.full((m, num_dims), np.iinfo(np.int64).max // 2, dtype=np.int64)
    hi = np.full((m, num_dims), -1, dtype=np.int64)
    empty = np.zeros(m, dtype=bool)
    ilo: list[int] = []
    ihi: list[int] = []
    dim_idx: list[int] = []
    offsets = np.empty(m * num_dims + 1, dtype=np.int64)
    pos = 0
    for i, key in enumerate(keys):
        if key.is_empty():
            empty[i] = True
        for d in range(num_dims):
            offsets[i * num_dims + d] = pos
            ivs = key.intervals[d]
            if ivs:
                lo[i, d] = ivs[0][0]
                hi[i, d] = ivs[-1][1]
                for iv in ivs:
                    ilo.append(iv[0])
                    ihi.append(iv[1])
                    dim_idx.append(d)
                pos += len(ivs)
            else:
                ilo.append(0)
                ihi.append(-1)
                dim_idx.append(d)
                pos += 1
    offsets[m * num_dims] = pos
    return PackedKeys(
        lo,
        hi,
        empty,
        np.array(ilo, dtype=np.int64),
        np.array(ihi, dtype=np.int64),
        np.array(dim_idx, dtype=np.int64),
        offsets,
    )


def mds_intersect_many(
    packed: PackedKeys, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """``(m,)`` intersection mask of one query box vs m packed MDS keys.

    ``qlo``/``qhi`` are the ``(d,)`` bounds of a *non-empty* box; on
    those it matches :meth:`MDS.intersects_box` exactly: a key
    intersects the box iff in *every* dimension *some* interval
    overlaps the box's range, and empty keys intersect nothing.
    """
    dim_idx = packed.dim_idx
    # per-interval overlap, then OR within each (key, dim) segment,
    # then AND over dimensions
    iv_hit = (packed.ilo <= qhi[dim_idx]) & (qlo[dim_idx] <= packed.ihi)
    seg_hit = np.logical_or.reduceat(iv_hit, packed.offsets[:-1])
    hit = seg_hit.reshape(-1, qlo.shape[0]).all(axis=1)
    hit &= ~packed.empty
    return hit
