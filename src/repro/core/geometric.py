"""Geometric (R-tree-style) insertion: PDC tree and R-tree variants.

These trees choose the insertion subtree by comparing candidate keys
geometrically: a child that covers the item already wins (the smallest
one), otherwise ``TreeConfig.insert_policy`` decides -- VOLAP's *least
overlap* rule (the PDC tree) or *least enlargement*, here the child
whose grown key has the least volume (the R-tree).  Nodes split at the
median along the widest dimension, which keeps splits cheap for both
key kinds while preserving the structural contrast the paper measures
(MBR keys overlap increasingly with dimensionality; MDS keys stay
tight).  The rules themselves live in :mod:`repro.core.placement`,
shared with the server image; they and this module ask the keys
themselves (``covers_point``, ``log_volume``, ``expand_point_inplace``,
``mbr``), whatever their kind.

An insert descends from the root choosing one child per level,
expanding keys and aggregates along the path, appends to a leaf, and
splits bottom-up on overflow.  The paper's PDC tree couples per-node
locks hand over hand (Section III-C/D); here an insert, like every
call, holds the tree's one lock (:class:`~repro.core.base.TreeLock`)
from start to end, and the paper's threads per node are modelled in
virtual time instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..olap.records import RecordBatch
from . import placement
from .aggregates import Aggregate
from .base import BaseTree
from .config import OpStats, TreeConfig
from .node import Node

__all__ = ["GeometricTree", "PDCTree", "RTree"]


class GeometricTree(BaseTree):
    """Shared implementation of the geometric tree family."""

    # -- insert: one descent, bottom-up splits ----------------------------

    def insert(self, coords: np.ndarray, measure: float) -> OpStats:
        coords = self._rows(coords)
        with self.lock:
            return self._insert_row(coords, measure)

    def insert_batch(
        self, batch: RecordBatch, words: Optional[np.ndarray] = None
    ) -> OpStats:
        """One :meth:`insert` per row, the batch checked once."""
        self._rows(batch.coords)
        stats = OpStats()
        with self.lock:
            for coords, measure in batch.iter_rows():
                stats.merge(self._insert_row(coords, measure))
        return stats

    def _insert_row(self, coords: np.ndarray, measure: float) -> OpStats:
        stats = OpStats()
        path: list[tuple[Node, int]] = []  # (ancestor, child index)
        node = self.root
        while True:
            stats.nodes_visited += 1
            if node.key.expand_point_inplace(coords):
                stats.key_expansions += 1
            node.agg.add_value(measure)
            if node.is_leaf:
                break
            idx = self._choose_child(node, coords)
            path.append((node, idx))
            node = node.children[idx]
        self.arena.append(node.slot, coords, measure)
        self._count += 1
        self._propagate_splits(node, path, stats)
        return stats

    def _propagate_splits(
        self, node: Node, path: list[tuple[Node, int]], stats: OpStats
    ) -> None:
        """Split ``node`` and then each ancestor on ``path`` it overfills,
        bottom-up."""
        while (
            self.arena.size(node.slot) > self.config.leaf_capacity
            if node.is_leaf
            else len(node.children) > self.config.fanout
        ):
            left, right = (
                self._split_leaf(node)
                if node.is_leaf
                else self._split_dir(node)
            )
            stats.splits += 1
            if path:
                parent, idx = path.pop()
                kids = parent.children
                parent.set_children(kids[:idx] + [left, right] + kids[idx + 1 :])
            else:  # the root split: grow the tree by one level
                parent = self.root = self._build_dir([left, right])
            # a split leaf's slot is freed once the leaf is out of the tree
            if node.is_leaf:
                self.arena.release(node.slot)
            node = parent

    # -- child choice -------------------------------------------------------

    def _choose_child(self, node: Node, coords: np.ndarray) -> int:
        children = node.children
        if len(children) == 1:
            return 0
        keys = [c.key for c in children]
        covering = placement.smallest_covering(keys, coords)
        if covering is not None:
            return covering
        grown = [k.copy() for k in keys]
        for g in grown:
            g.expand_point_inplace(coords)
        if self.config.insert_policy == "least_overlap":
            return placement.least_overlap(
                self.key_class, keys, grown, self.num_dims
            )
        # least enlargement: least grown volume (log space, so overflow-safe
        # in many dims), then least volume before; the first of equals
        ranks = [(g.log_volume(), k.log_volume()) for g, k in zip(grown, keys)]
        return ranks.index(min(ranks))

    # -- splits -----------------------------------------------------------

    def _split_leaf(self, leaf: Node) -> tuple[Node, Node]:
        left, right = placement.halves(self.arena.coords(leaf.slot))
        return self._build_leaf(leaf, left), self._build_leaf(leaf, right)

    def _build_leaf(self, src: Node, idx: np.ndarray) -> Node:
        arena = self.arena
        out = self._new_leaf()
        arena.extend(out.slot, arena.coords(src.slot)[idx], arena.measures(src.slot)[idx])
        out.agg = Aggregate.of_array(arena.measures(out.slot))
        # point by point, as the inserts grew it: an MDS grown by a
        # whole batch at once can coalesce differently
        for row in arena.coords(out.slot):
            out.key.expand_point_inplace(row)
        return out

    def _split_dir(self, node: Node) -> tuple[Node, Node]:
        children = node.children
        left, right = placement.halves([c.key.mbr().center() for c in children])
        return (
            self._build_dir([children[i] for i in left]),
            self._build_dir([children[i] for i in right]),
        )

    # -- bulk load ---------------------------------------------------------

    @classmethod
    def from_batch(cls, schema, batch, config=None):
        """Bulk load through :meth:`insert_batch`, one row at a time."""
        tree = cls(schema, config)
        tree.insert_batch(batch)
        return tree


class PDCTree(GeometricTree):
    """The PDC tree (Dehne & Zaboli, CCGRID 2012): MDS keys, cached
    aggregates, least-overlap insertion.

    VOLAP's predecessor shard structure and the baseline of paper
    Figures 4 and 5.
    """

    @staticmethod
    def _default_config() -> TreeConfig:
        return TreeConfig(key_kind="mds", insert_policy="least_overlap")


class RTree(GeometricTree):
    """R-tree baseline: MBR keys, least-enlargement insertion.

    No hierarchy awareness beyond the shared leaf-id encoding; used as
    the comparison point in paper Figure 5.
    """

    @staticmethod
    def _default_config() -> TreeConfig:
        return TreeConfig(key_kind="mbr", insert_policy="least_enlargement")
