"""Hilbert-ordered insertion: the Hilbert PDC tree and Hilbert R-tree.

The Hilbert PDC tree is the paper's core contribution (Section III-D).
Items map to compact Hilbert indices of their hierarchy-expanded IDs
(:class:`~repro.hilbert.id_expansion.HilbertKeyMapper`); every node
tracks the largest Hilbert value (LHV) in its subtree and children are
kept in LHV order.  Insertion then works like a B+ tree -- descend to
the first child whose LHV is >= the item's key -- with *no geometric
computations at all*, which is why ingestion is much faster than in the
PDC tree and nearly flat in the number of dimensions (paper Fig. 5a).

Splits cannot use R-tree split heuristics because child order is fixed
by the curve.  The Hilbert PDC tree instead evaluates every split
position in linear time (via running prefix/suffix key unions) and
splits where the resulting children overlap least; the plain Hilbert
R-tree splits at the middle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import key_from_words, lexsort_words
from ..hilbert.id_expansion import HilbertKeyMapper
from ..olap.records import RecordBatch
from .aggregates import Aggregate
from .config import TreeConfig
from .insert_engine import InsertEngineTree
from .node import Node

__all__ = ["HilbertTree", "HilbertPDCTree", "HilbertRTree"]


class HilbertTree(InsertEngineTree):
    """Shared implementation of the Hilbert tree family."""

    def __init__(self, schema, config=None):
        # the mapper must exist before BaseTree.__init__ creates the
        # root leaf, whose columns are sized by _leaf_key_words()
        cfg = config if config is not None else self._default_config()
        self.mapper = HilbertKeyMapper(schema, expand=cfg.hilbert_expand_ids)
        super().__init__(schema, cfg)

    @property
    def uses_hilbert(self) -> bool:
        return True

    def _leaf_key_words(self) -> int:
        return self.mapper.word_count

    def _hilbert_key(self, coords: np.ndarray) -> int:
        return self.mapper.key(coords)

    def _hilbert_key_words(self, coords: np.ndarray) -> np.ndarray:
        return self.mapper.key_words(coords)

    # -- child choice: purely by Hilbert order -----------------------------

    def _choose_child(
        self, node: Node, coords: np.ndarray, hkey: Optional[int]
    ) -> int:
        children = node.children
        for i, c in enumerate(children):
            if c.lhv is not None and c.lhv >= hkey:
                return i
        return len(children) - 1

    # -- splits: linear least-overlap scan over split positions ------------

    def _split_node(self, node: Node) -> tuple[Node, Node]:
        if node.is_leaf:
            return self._split_leaf(node)
        return self._split_dir(node)

    def _split_leaf(self, leaf: Node) -> tuple[Node, Node]:
        n = leaf.size
        order = lexsort_words(leaf.cols.live_hwords())
        split_at = self._choose_split_index(
            [leaf.cols.coords[i] for i in order], n, from_points=True
        )
        left_idx = order[:split_at]
        right_idx = order[split_at:]
        return self._build_leaf(leaf, left_idx), self._build_leaf(leaf, right_idx)

    def _build_leaf(self, src: Node, idx: np.ndarray) -> Node:
        """New leaf from ``src`` rows ``idx`` (ascending key order)."""
        out = self._new_leaf()
        cols = src.cols
        out.cols.set_rows(cols.coords[idx], cols.measures[idx], cols.hwords[idx])
        out.lhv = key_from_words(cols.hwords[int(idx[-1])])
        out.cols.reaggregate()
        self.policy.expand_points(out.key, out.leaf_coords())
        return out

    def _split_dir(self, node: Node) -> tuple[Node, Node]:
        children = node.children  # already in LHV order
        split_at = self._choose_split_index(
            [c.key for c in children], len(children), from_points=False
        )
        return (
            self._build_dir(children[:split_at]),
            self._build_dir(children[split_at:]),
        )

    def _build_dir(self, children: list[Node]) -> Node:
        out = self._new_dir()
        out.children = children
        out.key = self.policy.union_of([c.key for c in children], self.num_dims)
        agg = Aggregate.empty()
        for c in children:
            agg.merge(c.agg)
        out.agg = agg
        out.lhv = max(c.lhv for c in children)
        return out

    def _choose_split_index(
        self, entries: list, n: int, *, from_points: bool
    ) -> int:
        """Split position minimising overlap between the two halves.

        ``entries`` are item coordinates (leaves) or child keys
        (directories), already in Hilbert order.  Computed with running
        prefix/suffix unions, so the scan is linear (paper Section
        III-D).  With ``split_policy="middle"`` this degenerates to an
        even split (the Hilbert R-tree rule).
        """
        min_fill = max(1, n // 4)
        if self.config.split_policy == "middle":
            return n // 2

        def expand_entry(key, e):
            if from_points:
                self.policy.expand_point(key, e)
            else:
                self.policy.expand(key, e)

        # prefix[i] = key of entries[:i]; suffix[i] = key of entries[i:]
        prefix = [None] * (n + 1)
        prefix[0] = self.policy.empty(self.num_dims)
        for i in range(n):
            acc = self.policy.copy(prefix[i])
            expand_entry(acc, entries[i])
            prefix[i + 1] = acc
        suffix = [None] * (n + 1)
        suffix[n] = self.policy.empty(self.num_dims)
        for i in range(n - 1, -1, -1):
            acc = self.policy.copy(suffix[i + 1])
            expand_entry(acc, entries[i])
            suffix[i] = acc
        # Minimise overlap; break ties (frequent with sequential data,
        # where many split positions give zero overlap) toward the most
        # balanced split -- otherwise runs of increasing Hilbert keys
        # would repeatedly carve off minimum-fill leaves and degenerate
        # the tree into a chain.
        best = n // 2
        best_key = (float("inf"), 0)
        for i in range(min_fill, n - min_fill + 1):
            ov = self.policy.log_overlap(prefix[i], suffix[i])
            key = (ov, abs(i - n // 2))
            if key < best_key:
                best_key = key
                best = i
        return best

    # -- bulk load: sort by Hilbert key and pack bottom-up ------------------

    @classmethod
    def from_batch(cls, schema, batch: RecordBatch, config=None):
        """Bulk load by Hilbert sort + bottom-up packing.

        This is the fast path behind VOLAP's bulk ingestion (paper
        Section IV-C: >400k items/s vs ~50k/s point insertion): one key
        computation and O(1) packing work per item, no per-item descent.
        """
        tree = cls(schema, config)
        n = len(batch)
        if n == 0:
            return tree
        kwords = tree.mapper.key_words(batch.coords)
        order = lexsort_words(kwords)
        cap = tree.config.leaf_capacity
        fill = max(2, (cap * 3) // 4)
        leaves: list[Node] = []
        for start in range(0, n, fill):
            idx = order[start : start + fill]
            leaf = tree._new_leaf()
            leaf.cols.set_rows(
                batch.coords[idx], batch.measures[idx], kwords[idx]
            )
            leaf.lhv = key_from_words(kwords[int(idx[-1])])
            leaf.cols.reaggregate()
            tree.policy.expand_points(leaf.key, leaf.leaf_coords())
            leaves.append(leaf)
        level = leaves
        dir_fill = max(2, (tree.config.fanout * 3) // 4)
        while len(level) > 1:
            nxt = []
            for start in range(0, len(level), dir_fill):
                nxt.append(tree._build_dir(level[start : start + dir_fill]))
            level = nxt
        tree.root = level[0]
        tree._count = n
        return tree


class HilbertPDCTree(HilbertTree):
    """The Hilbert PDC tree -- VOLAP's core contribution.

    MDS keys, cached aggregates, Hilbert-ordered insertion, and
    least-overlap split-position choice.
    """

    @staticmethod
    def _default_config() -> TreeConfig:
        return TreeConfig(key_kind="mds", split_policy="least_overlap")


class HilbertRTree(HilbertTree):
    """Hilbert R-tree baseline (Kamel & Faloutsos): MBR keys, middle
    split, and *raw* (unexpanded) ids fed to the curve -- it predates the
    Fig. 3 hierarchical-ID expansion, which is part of what the Hilbert
    PDC tree adds on top of it."""

    @staticmethod
    def _default_config() -> TreeConfig:
        return TreeConfig(
            key_kind="mbr", split_policy="middle", hilbert_expand_ids=False
        )
