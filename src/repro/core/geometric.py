"""Geometric (R-tree-style) insertion: PDC tree and R-tree variants.

These trees choose the insertion subtree by comparing candidate keys
geometrically.  VOLAP's index and the PDC tree use the *least overlap*
rule -- "the child which results in the least overlap, since the high
global cost of overlap dominates the cost of performing overlap
calculations" (paper Section III-C) -- while the classic R-tree uses
Guttman's least-enlargement rule.  Both are available via
``TreeConfig.insert_policy``.

Node splits are sort-based: entries are ordered by their centre along
the widest dimension and divided at the median.  This keeps splits
cheap for both key kinds while preserving the structural contrast the
paper measures (MBR keys overlap increasingly with dimensionality; MDS
keys stay tight).
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
        # A child that already covers the point needs no key expansion --
        # zero overlap increase, so it always wins; break ties by volume.
        covering = [
            i
            for i, c in enumerate(children)
            if self.policy.covers_point(c.key, coords)
        ]
        if covering:
            return min(
                covering, key=lambda i: self.policy.log_volume(children[i].key)
            )
        if self.config.insert_policy == "least_enlargement":
            return self._least_enlargement(children, coords)
        return self._least_overlap(children, coords)

    def _least_enlargement(self, children: list[Node], coords: np.ndarray) -> int:
        """Guttman's rule in log space (overflow-safe for many dims)."""
        best = 0
        best_key = (float("inf"), float("inf"))
        for i, c in enumerate(children):
            expanded = self.policy.copy(c.key)
            self.policy.expand_point(expanded, coords)
            grow = self.policy.log_volume(expanded)
            tie = self.policy.log_volume(c.key)
            if (grow, tie) < best_key:
                best_key = (grow, tie)
                best = i
        return best

    def _least_overlap(self, children: list[Node], coords: np.ndarray) -> int:
        """VOLAP's rule: least overlap of the expanded key with siblings.

        Sibling context is the union of all other children's keys,
        precomputed with prefix/suffix unions so the whole choice is
        linear in the number of children.
        """
        n = len(children)
        prefix = [None] * (n + 1)
        prefix[0] = self.policy.empty(self.num_dims)
        for i in range(n):
            acc = self.policy.copy(prefix[i])
            self.policy.expand(acc, children[i].key)
            prefix[i + 1] = acc
        suffix = [None] * (n + 1)
        suffix[n] = self.policy.empty(self.num_dims)
        for i in range(n - 1, -1, -1):
            acc = self.policy.copy(suffix[i + 1])
            self.policy.expand(acc, children[i].key)
            suffix[i] = acc
        best = 0
        best_key = (float("inf"), float("inf"))
        for i, c in enumerate(children):
            expanded = self.policy.copy(c.key)
            self.policy.expand_point(expanded, coords)
            others = self.policy.copy(prefix[i])
            self.policy.expand(others, suffix[i + 1])
            ov = self.policy.log_overlap(expanded, others)
            # tie-break on relative enlargement (log-volume ratio), so a
            # child that barely grows beats one that stretches across space
            tie = self.policy.log_volume(expanded) - self.policy.log_volume(
                c.key
            )
            if (ov, tie) < best_key:
                best_key = (ov, tie)
                best = i
        return best

    # -- splits -----------------------------------------------------------

    def _split_leaf(self, leaf: Node) -> tuple[Node, Node]:
        n = leaf.size
        coords = leaf.leaf_coords()
        spans = coords.max(axis=0) - coords.min(axis=0)
        dim = int(np.argmax(spans))
        order = np.argsort(coords[:, dim], kind="stable")
        mid = n // 2
        return (
            self._build_leaf(leaf, order[:mid]),
            self._build_leaf(leaf, order[mid:]),
        )

    def _build_leaf(self, src: Node, idx: np.ndarray) -> Node:
        out = self._new_leaf()
        cols = src.cols
        out.cols.set_rows(cols.coords[idx], cols.measures[idx])
        out.cols.reaggregate()
        # point by point, as the inserts grew it: an MDS grown by a
        # whole batch at once can coalesce differently
        for row in out.leaf_coords():
            self.policy.expand_point(out.key, row)
        return out

    def _split_dir(self, node: Node) -> tuple[Node, Node]:
        children = node.children
        centers = np.array(
            [self.policy.mbr(c.key).center() for c in children]
        )
        spans = centers.max(axis=0) - centers.min(axis=0)
        dim = int(np.argmax(spans))
        order = np.argsort(centers[:, dim], kind="stable")
        mid = len(children) // 2
        return (
            self._build_dir([children[i] for i in order[:mid]]),
            self._build_dir([children[i] for i in order[mid:]]),
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
    """Classic R-tree baseline: MBR keys, least-enlargement insertion.

    No hierarchy awareness beyond the shared leaf-id encoding; used as
    the comparison point in paper Figure 5.
    """

    @staticmethod
    def _default_config() -> TreeConfig:
        return TreeConfig(key_kind="mbr", insert_policy="least_enlargement")
