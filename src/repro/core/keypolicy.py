"""Key policies: uniform operations over MBR (Box) and MDS keys.

The tree code is written once against this small strategy interface;
selecting ``key_kind`` in :class:`~repro.core.config.TreeConfig` decides
whether nodes carry single-interval boxes or interval-set MDS keys
(paper Section III-D: each tree variant exists in both flavours).

The placement rules are written here once, for the trees and the
server image alike: the smallest covering child
(:meth:`KeyPolicy.smallest_covering`), the least-overlap child
(:meth:`KeyPolicy.least_overlap`, paper Section III-C), the Hilbert PDC
split position (:meth:`KeyPolicy.least_overlap_split`, Section III-D)
and the median split of the geometric trees and the image
(:meth:`KeyPolicy.halves`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

import numpy as np

from ..olap.keys import (
    Box,
    PackedKeys,
    boxes_intersect_many,
    pack_boxes,
)
from ..olap.mds import MDS, mds_intersect_many, pack_mds

__all__ = ["KeyPolicy", "MBRPolicy", "MDSPolicy", "make_policy"]


class KeyPolicy:
    """Strategy interface for node keys."""

    kind: str = "abstract"

    def empty(self, num_dims: int) -> Any:
        raise NotImplementedError

    def from_point(self, coords: np.ndarray) -> Any:
        raise NotImplementedError

    def expand_point(self, key: Any, coords: np.ndarray) -> bool:
        """Grow ``key`` to cover a point; return True if it changed."""
        raise NotImplementedError

    def expand_points(self, key: Any, coords: np.ndarray) -> bool:
        """Grow ``key`` to cover every row of an ``(n, d)`` array."""
        raise NotImplementedError

    def expand(self, key: Any, other: Any) -> bool:
        """Grow ``key`` to cover another key; return True if it changed."""
        raise NotImplementedError

    def segment_keys(self, coords: np.ndarray, starts: np.ndarray) -> list:
        """In one pass, the key an empty key grows to from each segment
        (rows ``starts[i]`` up to the next start) of an ``(n, d)`` array."""
        raise NotImplementedError

    def intersects_box(self, key: Any, box: Box) -> bool:
        raise NotImplementedError

    def within_box(self, key: Any, box: Box) -> bool:
        raise NotImplementedError

    def log_overlap(self, a: Any, b: Any) -> float:
        """log2 volume of the intersection (-inf when disjoint)."""
        raise NotImplementedError

    def covers(self, a: Any, b: Any) -> bool:
        """True if key ``a`` covers key ``b`` entirely (validation aid)."""
        raise NotImplementedError

    def covers_point(self, key: Any, coords: np.ndarray) -> bool:
        raise NotImplementedError

    def adopt(self, key: Any) -> Any:
        """Convert a key of either kind into this policy's native kind
        (a copy).  Used when a server's local image and the shard trees
        are configured with different key kinds."""
        raise NotImplementedError

    def log_volume(self, key: Any) -> float:
        raise NotImplementedError

    def union_of(self, keys: Iterable[Any], num_dims: int) -> Any:
        key = self.empty(num_dims)
        for k in keys:
            self.expand(key, k)
        return key

    def mbr(self, key: Any) -> Box:
        raise NotImplementedError

    def copy(self, key: Any) -> Any:
        raise NotImplementedError

    # -- placement rules ---------------------------------------------------

    def smallest_covering(self, keys: list[Any], coords: np.ndarray) -> Optional[int]:
        """Index of the key of least volume that covers the point (the
        first of equals), or None when no key covers it.  A covering
        child grows no key, so it wins any overlap rule."""
        covering = [i for i, k in enumerate(keys) if self.covers_point(k, coords)]
        if not covering:
            return None
        return min(covering, key=lambda i: self.log_volume(keys[i]))

    def running_unions(
        self, entries: list, grow: Callable[[Any, Any], bool], num_dims: int
    ) -> tuple[list, list]:
        """``(prefix, suffix)``: ``prefix[i]`` the union of
        ``entries[:i]`` and ``suffix[i]`` that of ``entries[i:]``, each
        grown from an empty key by ``grow`` (:meth:`expand` for keys,
        :meth:`expand_point` for rows) -- the linear scan behind both
        overlap rules."""
        prefix = [self.empty(num_dims)]
        for e in entries:
            acc = self.copy(prefix[-1])
            grow(acc, e)
            prefix.append(acc)
        suffix = [self.empty(num_dims)]
        for e in reversed(entries):
            acc = self.copy(suffix[-1])
            grow(acc, e)
            suffix.append(acc)
        suffix.reverse()
        return prefix, suffix

    def least_overlap(self, keys: list[Any], grown: list[Any], num_dims: int) -> int:
        """Index of the child whose grown key (``grown[i]`` is ``keys[i]``
        grown by the new entry) overlaps the union of its siblings'
        keys least, ties broken by relative growth (log-volume ratio),
        so a child that barely grows beats one that stretches across
        space; the first of equals wins.  VOLAP's insertion rule (paper
        Section III-C: "the high global cost of overlap dominates")."""
        prefix, suffix = self.running_unions(keys, self.expand, num_dims)
        best, best_key = 0, (float("inf"), float("inf"))
        for i, (key, g) in enumerate(zip(keys, grown)):
            others = self.copy(prefix[i])
            self.expand(others, suffix[i + 1])
            rank = (
                self.log_overlap(g, others),
                self.log_volume(g) - self.log_volume(key),
            )
            if rank < best_key:
                best, best_key = i, rank
        return best

    def least_overlap_split(
        self, entries: list, grow: Callable[[Any, Any], bool], num_dims: int
    ) -> int:
        """Where to cut ``entries`` (rows or keys, in curve order) so that
        the unions of the two sides overlap least: the Hilbert PDC split
        (paper Section III-D), linear in ``len(entries)``.  Each side
        keeps at least a quarter.  Ties -- frequent with sequential
        data, where many cuts overlap nothing -- go to the cut nearest
        the middle; otherwise runs of increasing Hilbert keys would
        carve off minimum-fill nodes and degenerate the tree into a
        chain."""
        n = len(entries)
        min_fill = max(1, n // 4)
        prefix, suffix = self.running_unions(entries, grow, num_dims)
        best, best_key = n // 2, (float("inf"), 0)
        for i in range(min_fill, n - min_fill + 1):
            rank = (self.log_overlap(prefix[i], suffix[i]), abs(i - n // 2))
            if rank < best_key:
                best, best_key = i, rank
        return best

    @staticmethod
    def halves(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The indices of an ``(n, d)`` array's rows split at the median
        (``n // 2``) of a stable sort along the dimension of widest
        spread: the geometric trees' and the image's node split, fed
        item rows or key centres."""
        points = np.asarray(points)
        spans = points.max(axis=0) - points.min(axis=0)
        order = np.argsort(points[:, int(np.argmax(spans))], kind="stable")
        mid = len(order) // 2
        return order[:mid], order[mid:]

    # -- packed primitives (the read engine's directory test) ------------

    def pack_keys(self, keys: list[Any], num_dims: int) -> PackedKeys:
        """Snapshot ``m`` keys as a :class:`PackedKeys` SoA for pruning."""
        raise NotImplementedError

    def intersects_many(
        self, packed: PackedKeys, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        """``(m,)`` mask equal to ``intersects_box(key, box)`` per key.

        ``qlo``/``qhi`` are the ``(d,)`` bounds of a non-empty box.
        """
        raise NotImplementedError

    def covers_points_many(
        self, packed: PackedKeys, coords: np.ndarray
    ) -> np.ndarray:
        """``(n, m)`` mask equal to ``covers_point(key, row)`` for every
        row of an ``(n, d)`` array against every packed key."""
        raise NotImplementedError

    def classify(
        self, packed: PackedKeys, qlo: np.ndarray, qhi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide all ``m`` packed keys against one non-empty box.

        Returns ``(hit, within)``, two ``(m,)`` masks equal per key to
        ``intersects_box(key, box)`` and ``within_box(key, box)``.  A
        key lies inside a box iff its MBR summary does, so the within
        half is the same for both key kinds; ``& hit`` drops the empty
        keys, whose inverted MBR would pass the containment test.
        """
        hit = self.intersects_many(packed, qlo, qhi)
        within = ((qlo <= packed.lo) & (packed.hi <= qhi)).all(axis=1)
        within &= hit
        return hit, within


class MBRPolicy(KeyPolicy):
    """Single-interval-per-dimension keys (classic R-tree boxes)."""

    kind = "mbr"

    def empty(self, num_dims: int) -> Box:
        return Box.empty(num_dims)

    def from_point(self, coords: np.ndarray) -> Box:
        return Box.from_point(coords)

    def expand_point(self, key: Box, coords: np.ndarray) -> bool:
        return key.expand_point_inplace(coords)

    def expand_points(self, key: Box, coords: np.ndarray) -> bool:
        return key.expand_points_inplace(coords)

    def expand(self, key: Box, other: Box) -> bool:
        return key.expand_inplace(other)

    def segment_keys(self, coords: np.ndarray, starts: np.ndarray) -> list[Box]:
        lo = np.minimum.reduceat(coords, starts)
        hi = np.maximum.reduceat(coords, starts)
        return [Box(a, b) for a, b in zip(lo, hi)]

    def intersects_box(self, key: Box, box: Box) -> bool:
        return key.intersects(box)

    def within_box(self, key: Box, box: Box) -> bool:
        return box.contains_box(key) and not key.is_empty()

    def log_overlap(self, a: Box, b: Box) -> float:
        return a.log_overlap_volume(b)

    def log_volume(self, key: Box) -> float:
        return key.log_volume()

    def covers(self, a: Box, b: Box) -> bool:
        return a.contains_box(b)

    def adopt(self, key) -> Box:
        if isinstance(key, Box):
            return key.copy()
        return key.mbr()

    def covers_point(self, key: Box, coords: np.ndarray) -> bool:
        return key.contains_point(coords)

    def mbr(self, key: Box) -> Box:
        return key.copy()

    def copy(self, key: Box) -> Box:
        return key.copy()

    def pack_keys(self, keys: list[Box], num_dims: int) -> PackedKeys:
        return pack_boxes(keys, num_dims)

    def intersects_many(
        self, packed: PackedKeys, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        return boxes_intersect_many(packed, qlo, qhi)

    def covers_points_many(
        self, packed: PackedKeys, coords: np.ndarray
    ) -> np.ndarray:
        c = coords[:, None, :]
        return ((packed.lo <= c) & (c <= packed.hi)).all(axis=2)


class MDSPolicy(KeyPolicy):
    """Interval-set keys (Minimum Describing Subsets)."""

    kind = "mds"

    def __init__(self, max_intervals: int = 4):
        self.max_intervals = max_intervals

    def empty(self, num_dims: int) -> MDS:
        return MDS.empty(num_dims, self.max_intervals)

    def from_point(self, coords: np.ndarray) -> MDS:
        return MDS.from_point(coords, self.max_intervals)

    def expand_point(self, key: MDS, coords: np.ndarray) -> bool:
        return key.expand_point_inplace(coords)

    def expand_points(self, key: MDS, coords: np.ndarray) -> bool:
        return key.expand_points_inplace(coords)

    def expand(self, key: MDS, other: MDS) -> bool:
        return key.expand_inplace(other)

    def segment_keys(self, coords: np.ndarray, starts: np.ndarray) -> list[MDS]:
        return MDS.of_segments(coords, starts, self.max_intervals)

    def intersects_box(self, key: MDS, box: Box) -> bool:
        return key.intersects_box(box)

    def within_box(self, key: MDS, box: Box) -> bool:
        return key.within_box(box) and not key.is_empty()

    def log_overlap(self, a: MDS, b: MDS) -> float:
        return a.log_overlap_volume(b)

    def log_volume(self, key: MDS) -> float:
        return key.log_volume()

    def covers(self, a: MDS, b: MDS) -> bool:
        return a.covers(b)

    def adopt(self, key) -> MDS:
        if not isinstance(key, MDS):
            return MDS.from_box(key, self.max_intervals)
        if key.max_intervals == self.max_intervals:
            return key.copy()
        # a key as wide as its block: the constructor coalesces to the cap
        return MDS(key.intervals, self.max_intervals)

    def covers_point(self, key: MDS, coords: np.ndarray) -> bool:
        return key.covers_point(coords)

    def mbr(self, key: MDS) -> Box:
        return key.mbr()

    def copy(self, key: MDS) -> MDS:
        return key.copy()

    def pack_keys(self, keys: list[MDS], num_dims: int) -> PackedKeys:
        return pack_mds(keys, num_dims)

    def intersects_many(
        self, packed: PackedKeys, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        return mds_intersect_many(packed, qlo, qhi)

    def covers_points_many(
        self, packed: PackedKeys, coords: np.ndarray
    ) -> np.ndarray:
        c = coords[:, None, :, None]
        return ((packed.ilo <= c) & (c <= packed.ihi)).any(axis=3).all(axis=2)


def make_policy(key_kind: str, mds_max_intervals: int = 4) -> KeyPolicy:
    if key_kind == "mbr":
        return MBRPolicy()
    if key_kind == "mds":
        return MDSPolicy(mds_max_intervals)
    raise ValueError(f"unknown key kind {key_kind!r}")
