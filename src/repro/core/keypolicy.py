"""Key policies: what needs the key *kind* but no key in hand.

A node's key is a :class:`~repro.olap.keys.Box` (MBR) or an
:class:`~repro.olap.mds.MDS`, and each answers one key interface itself
(covers, intersects, within, volumes, growth, ``mbr``, ``copy``): the
trees and the server image call the key.  Selecting ``key_kind`` in
:class:`~repro.core.config.TreeConfig` picks the policy, which owns
only what no single key can answer (paper Section III-D: each tree
variant exists in both flavours): the kind's factories (``empty``,
``from_point``, ``segment_keys``, ``adopt``), the kernels over a block
of many keys at once (``stack``, ``intersects_many``,
``covers_points_many``, ``classify``) and the placement rules.

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

from ..olap.keys import Box
from ..olap.mds import DEFAULT_MAX_INTERVALS, MDS

__all__ = ["KeyPolicy", "MBRPolicy", "MDSPolicy", "make_policy"]


class KeyPolicy:
    """The kind-level half of the key interface."""

    kind: str = "abstract"

    def empty(self, num_dims: int) -> Any:
        raise NotImplementedError

    def from_point(self, coords: np.ndarray) -> Any:
        raise NotImplementedError

    def segment_keys(self, coords: np.ndarray, starts: np.ndarray) -> list:
        """In one pass, the key an empty key grows to from each segment
        (rows ``starts[i]`` up to the next start) of an ``(n, d)`` array."""
        raise NotImplementedError

    def adopt(self, key: Any) -> Any:
        """Convert a key of either kind into this policy's native kind
        (a copy).  Used when a server's local image and the shard trees
        are configured with different key kinds."""
        raise NotImplementedError

    def union_of(self, keys: Iterable[Any], num_dims: int) -> Any:
        key = self.empty(num_dims)
        for k in keys:
            key.expand_inplace(k)
        return key

    # -- placement rules ---------------------------------------------------

    def smallest_covering(self, keys: list[Any], coords: np.ndarray) -> Optional[int]:
        """Index of the key of least volume that covers the point (the
        first of equals), or None when no key covers it.  A covering
        child grows no key, so it wins any overlap rule."""
        covering = [i for i, k in enumerate(keys) if k.covers_point(coords)]
        if not covering:
            return None
        return min(covering, key=lambda i: keys[i].log_volume())

    def running_unions(
        self, entries: list, grow: Callable[[Any, Any], bool], num_dims: int
    ) -> tuple[list, list]:
        """``(prefix, suffix)``: ``prefix[i]`` the union of
        ``entries[:i]`` and ``suffix[i]`` that of ``entries[i:]``, each
        grown from an empty key by ``grow`` (the kind's
        ``expand_inplace`` for keys, ``expand_point_inplace`` for rows)
        -- the linear scan behind both overlap rules."""
        prefix = [self.empty(num_dims)]
        for e in entries:
            acc = prefix[-1].copy()
            grow(acc, e)
            prefix.append(acc)
        suffix = [self.empty(num_dims)]
        for e in reversed(entries):
            acc = suffix[-1].copy()
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
        prefix, suffix = self.running_unions(
            keys, type(keys[0]).expand_inplace, num_dims
        )
        best, best_key = 0, (float("inf"), float("inf"))
        for i, (key, g) in enumerate(zip(keys, grown)):
            others = prefix[i].copy()
            others.expand_inplace(suffix[i + 1])
            rank = (
                g.log_overlap_volume(others),
                g.log_volume() - key.log_volume(),
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
            rank = (prefix[i].log_overlap_volume(suffix[i]), abs(i - n // 2))
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

    # -- block kernels (the read engine's directory test) -----------------
    #
    # A block is the kind's ``stack`` of ``m`` keys: ``(m, 2, d)`` bounds
    # of boxes, ``(m, 2, d, cap)`` interval slots of MDS keys.

    def stack(self, keys: list[Any], bind: bool = False) -> np.ndarray:
        """The kind's block of ``keys`` (:meth:`Box.stack`,
        :meth:`MDS.stack`)."""
        raise NotImplementedError

    def intersects_many(
        self, block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        """``(m,)`` mask equal to ``key.intersects_box(box)`` per key.

        ``qlo``/``qhi`` are the ``(d,)`` bounds of a non-empty box.
        """
        raise NotImplementedError

    def covers_points_many(
        self, block: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """``(n, m)`` mask equal to ``key.covers_point(row)`` for every
        row of an ``(n, d)`` array against every key of the block."""
        raise NotImplementedError

    def classify(
        self, block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide all ``m`` keys of a block against one non-empty box.

        Returns ``(hit, within)``, two ``(m,)`` masks equal per key to
        ``key.intersects_box(box)`` and ``key.within_box(box)``.  A key
        lies inside a box iff each of its intervals does -- a box's one
        per dimension, every slot of an MDS, the unused ones
        (``[max // 2, -1]``) passing -- and ``& hit`` drops the empty
        keys, which pass that test too.
        """
        raise NotImplementedError


class MBRPolicy(KeyPolicy):
    """Single-interval-per-dimension keys (classic R-tree boxes)."""

    kind = "mbr"
    empty = staticmethod(Box.empty)
    from_point = staticmethod(Box.from_point)

    def segment_keys(self, coords: np.ndarray, starts: np.ndarray) -> list[Box]:
        lo = np.minimum.reduceat(coords, starts)
        hi = np.maximum.reduceat(coords, starts)
        return [Box(a, b, copy=False) for a, b in zip(lo, hi)]

    def adopt(self, key) -> Box:
        return key.mbr()

    stack = staticmethod(Box.stack)

    def intersects_many(
        self, block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        lo, hi = block[:, 0], block[:, 1]
        # an empty box has lo > hi in some dimension: it meets no box
        return ((lo <= qhi) & (qlo <= hi) & (lo <= hi)).all(axis=1)

    def covers_points_many(
        self, block: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        c = coords[:, None, :]
        return ((block[:, 0] <= c) & (c <= block[:, 1])).all(axis=2)

    def classify(
        self, block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        hit = self.intersects_many(block, qlo, qhi)
        within = ((qlo <= block[:, 0]) & (block[:, 1] <= qhi)).all(axis=1)
        return hit, within & hit


class MDSPolicy(KeyPolicy):
    """Interval-set keys (Minimum Describing Subsets), capped at
    :data:`~repro.olap.mds.DEFAULT_MAX_INTERVALS` per dimension."""

    kind = "mds"
    empty = staticmethod(MDS.empty)
    from_point = staticmethod(MDS.from_point)
    segment_keys = staticmethod(MDS.of_segments)

    def adopt(self, key) -> MDS:
        if not isinstance(key, MDS):
            return MDS.from_box(key)
        if key.max_intervals == DEFAULT_MAX_INTERVALS:
            return key.copy()
        # a wire key carries its own cap: the constructor coalesces to ours
        return MDS(key.intervals)

    stack = staticmethod(MDS.stack)

    def intersects_many(
        self, block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> np.ndarray:
        # in every dimension some interval overlaps the box's range (an
        # empty key has a dimension with none)
        hit = (block[:, 0] <= qhi[:, None]) & (qlo[:, None] <= block[:, 1])
        return hit.any(axis=2).all(axis=1)

    def covers_points_many(
        self, block: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        c = coords[:, None, :, None]
        return ((block[:, 0] <= c) & (c <= block[:, 1])).any(axis=3).all(axis=2)

    def classify(
        self, block: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # two broadcasts over the whole block, starts and ends at once
        below = block <= qhi[:, None]
        above = block >= qlo[:, None]
        hit = (below[:, 0] & above[:, 1]).any(axis=2).all(axis=1)
        within = (above[:, 0] & below[:, 1]).reshape(len(block), -1).all(axis=1)
        return hit, within & hit


def make_policy(key_kind: str) -> KeyPolicy:
    if key_kind == "mbr":
        return MBRPolicy()
    if key_kind == "mds":
        return MDSPolicy()
    raise ValueError(f"unknown key kind {key_kind!r}")
