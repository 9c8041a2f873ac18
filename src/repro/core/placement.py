"""The placement rules, written once for the trees and the server image.

Where a new entry goes and where a full node is cut never depend on the
key kind: each rule asks the keys themselves (``covers_point``,
``log_volume``, ``expand_*_inplace``, ``log_overlap_volume``, ``copy``),
and one that builds an empty key takes the key class
(:class:`~repro.olap.keys.Box` or :class:`~repro.olap.mds.MDS`).  The
rules: the smallest covering child (:func:`smallest_covering`), the
least-overlap child (:func:`least_overlap`, paper Section III-C), the
Hilbert PDC split position (:func:`least_overlap_split`, Section III-D)
and the median split of the geometric trees and the image
(:func:`halves`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

__all__ = [
    "smallest_covering",
    "running_unions",
    "least_overlap",
    "least_overlap_split",
    "halves",
]


def smallest_covering(keys: list[Any], coords: np.ndarray) -> Optional[int]:
    """Index of the key of least volume that covers the point (the
    first of equals), or None when no key covers it.  A covering
    child grows no key, so it wins any overlap rule."""
    covering = [i for i, k in enumerate(keys) if k.covers_point(coords)]
    if not covering:
        return None
    return min(covering, key=lambda i: keys[i].log_volume())


def running_unions(
    kind: type, entries: list, grow: Callable[[Any, Any], bool], num_dims: int
) -> tuple[list, list]:
    """``(prefix, suffix)``: ``prefix[i]`` the union of ``entries[:i]``
    and ``suffix[i]`` that of ``entries[i:]``, each grown from an empty
    key of class ``kind`` by ``grow`` (``expand_inplace`` for keys,
    ``expand_point_inplace`` for rows) -- the linear scan behind both
    overlap rules."""
    prefix = [kind.empty(num_dims)]
    for e in entries:
        acc = prefix[-1].copy()
        grow(acc, e)
        prefix.append(acc)
    suffix = [kind.empty(num_dims)]
    for e in reversed(entries):
        acc = suffix[-1].copy()
        grow(acc, e)
        suffix.append(acc)
    suffix.reverse()
    return prefix, suffix


def least_overlap(
    kind: type, keys: list[Any], grown: list[Any], num_dims: int
) -> int:
    """Index of the child whose grown key (``grown[i]`` is ``keys[i]``
    grown by the new entry) overlaps the union of its siblings' keys
    least, ties broken by relative growth (log-volume ratio), so a
    child that barely grows beats one that stretches across space; the
    first of equals wins.  VOLAP's insertion rule (paper Section III-C:
    "the high global cost of overlap dominates")."""
    prefix, suffix = running_unions(kind, keys, kind.expand_inplace, num_dims)
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
    kind: type, entries: list, grow: Callable[[Any, Any], bool], num_dims: int
) -> int:
    """Where to cut ``entries`` (rows or keys, in curve order) so that
    the unions of the two sides overlap least: the Hilbert PDC split
    (paper Section III-D), linear in ``len(entries)``.  Each side keeps
    at least a quarter.  Ties -- frequent with sequential data, where
    many cuts overlap nothing -- go to the cut nearest the middle;
    otherwise runs of increasing Hilbert keys would carve off
    minimum-fill nodes and degenerate the tree into a chain."""
    n = len(entries)
    min_fill = max(1, n // 4)
    prefix, suffix = running_unions(kind, entries, grow, num_dims)
    best, best_key = n // 2, (float("inf"), 0)
    for i in range(min_fill, n - min_fill + 1):
        rank = (prefix[i].log_overlap_volume(suffix[i]), abs(i - n // 2))
        if rank < best_key:
            best, best_key = i, rank
    return best


def halves(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of an ``(n, d)`` array's rows split at the median
    (``n // 2``) of a stable sort along the dimension of widest spread:
    the geometric trees' and the image's node split, fed item rows or
    key centres."""
    points = np.asarray(points)
    spans = points.max(axis=0) - points.min(axis=0)
    order = np.argsort(points[:, int(np.argmax(spans))], kind="stable")
    mid = len(order) // 2
    return order[:mid], order[mid:]
