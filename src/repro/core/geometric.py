"""Geometric (R-tree-style) insertion: PDC tree and R-tree variants.

These trees choose the insertion subtree by comparing candidate keys
geometrically: a child that covers the item already wins (the smallest
one), otherwise ``TreeConfig.insert_policy`` decides -- VOLAP's *least
overlap* rule (the PDC tree) or *least enlargement*, here the child
whose grown key has the least volume (the R-tree).  Nodes split at the
median along the widest dimension, which keeps splits cheap for both
key kinds while preserving the structural contrast the paper measures
(MBR keys overlap increasingly with dimensionality; MDS keys stay
tight).  The rules themselves live in :mod:`repro.core.keypolicy`,
shared with the server image; they and this module ask the keys
themselves (``covers_point``, ``log_volume``, ``expand_point_inplace``,
``mbr``), whatever their kind.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import TreeConfig
from .insert_engine import InsertEngineTree
from .node import Node

__all__ = ["GeometricTree", "PDCTree", "RTree"]


class GeometricTree(InsertEngineTree):
    """Shared implementation of the geometric tree family."""

    # -- child choice -------------------------------------------------------

    def _choose_child(
        self, node: Node, coords: np.ndarray, hkey: Optional[int]
    ) -> int:
        children = node.children
        if len(children) == 1:
            return 0
        policy = self.policy
        keys = [c.key for c in children]
        covering = policy.smallest_covering(keys, coords)
        if covering is not None:
            return covering
        grown = [k.copy() for k in keys]
        for g in grown:
            g.expand_point_inplace(coords)
        if self.config.insert_policy == "least_overlap":
            return policy.least_overlap(keys, grown, self.num_dims)
        # least enlargement: least grown volume (log space, so overflow-safe
        # in many dims), then least volume before; the first of equals
        ranks = [(g.log_volume(), k.log_volume()) for g, k in zip(grown, keys)]
        return ranks.index(min(ranks))

    # -- splits -----------------------------------------------------------

    def _split_leaf(self, leaf: Node) -> tuple[Node, Node]:
        left, right = self.policy.halves(leaf.leaf_coords())
        return self._build_leaf(leaf, left), self._build_leaf(leaf, right)

    def _build_leaf(self, src: Node, idx: np.ndarray) -> Node:
        out = self._new_leaf()
        cols = src.cols
        out.cols.set_rows(cols.coords[idx], cols.measures[idx])
        out.cols.reaggregate()
        # point by point, as the inserts grew it: an MDS grown by a
        # whole batch at once can coalesce differently
        for row in out.leaf_coords():
            out.key.expand_point_inplace(row)
        return out

    def _split_dir(self, node: Node) -> tuple[Node, Node]:
        children = node.children
        left, right = self.policy.halves([c.key.mbr().center() for c in children])
        return (
            self._build_dir([children[i] for i in left]),
            self._build_dir([children[i] for i in right]),
        )


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
