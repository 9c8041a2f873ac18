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

Key order also makes batches cheap: ``insert_batch`` sorts a batch
by key once and inserts it in one descent, each directory dealing its
slice of the sorted keys out among its children by LHV, so a touched
node is locked and updated once per batch.  A leaf the batch overflows
is repacked by the same packer a bulk load uses -- rows in key order
into 3/4-full leaves, nodes into 3/4-full directories -- and one leaf
builder makes every new leaf, computing all their keys in one
vectorized pass (:meth:`~repro.core.keypolicy.KeyPolicy.segment_keys`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import key_from_words, lexsort_words
from ..hilbert.id_expansion import HilbertKeyMapper
from ..olap.records import RecordBatch
from .aggregates import Aggregate
from .config import OpStats, TreeConfig
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

    def _split_leaf(self, leaf: Node) -> tuple[Node, Node]:
        n = leaf.size
        cols = leaf.cols
        order = lexsort_words(cols.live_hwords())
        split_at = self._choose_split_index(
            [cols.coords[i] for i in order], n, from_points=True
        )
        left, right = self._leaves(
            cols.coords[order], cols.measures[order], cols.hwords[order],
            np.array([0, split_at]),
        )
        return left, right

    def _split_dir(self, node: Node) -> tuple[Node, Node]:
        children = node.children  # already in LHV order
        split_at = self._choose_split_index(
            [c.key for c in children], len(children), from_points=False
        )
        return (
            self._build_dir(children[:split_at]),
            self._build_dir(children[split_at:]),
        )

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

    # -- batched insert: one descent per batch --------------------------------

    def key_words(self, coords: np.ndarray) -> np.ndarray:
        return self.mapper.key_words(coords)

    def insert_batch(
        self, batch: RecordBatch, words: Optional[np.ndarray] = None
    ) -> OpStats:
        """Insert a whole batch in one descent (:meth:`_descend`) over the
        rows sorted by key -- ``words``, the :meth:`key_words` of the
        rows when the caller has them -- so that every node the batch
        touches is visited, locked and updated once."""
        stats = OpStats()
        if not len(batch):
            return stats
        if words is None:
            words = self.mapper.key_words(batch.coords)
        order = lexsort_words(words)
        words, measures = words[order], batch.measures[order]
        rows = (batch.coords[order], measures, words, measures.tolist())
        keys = words[:, 0].tolist()  # the sorted keys as ints, for bisect
        for col in words.T[1:]:
            keys = [(k << 64) | w for k, w in zip(keys, col.tolist())]
        if self._tree_lock is not None:
            self._tree_lock.acquire()
        root = self.root
        root.acquire()
        try:
            nodes = self._descend(root, rows, keys, 0, len(keys), stats)
            if nodes != [root]:
                self.root = self._pack_root(nodes)
            self._count += len(keys)
        finally:
            root.release()
            if self._tree_lock is not None:
                self._tree_lock.release()
        return stats

    def _descend(
        self, node: Node, rows: tuple, keys: list[int], lo: int, hi: int, stats: OpStats
    ) -> list[Node]:
        """Insert sorted rows ``lo:hi`` below ``node``, which the caller
        holds locked; returns the nodes that take its place.

        A leaf the rows fit in grows by them; one they overflow is
        repacked with them (:meth:`_pack_leaves`).  A directory grows
        its key, aggregate and LHV by the whole slice, hands child ``i``
        the keys up to its LHV (the last child the rest: a B+-tree
        descent), locking each child under its own lock, and repacks
        (:meth:`_pack_dirs`) once, after all of them, if their
        replacements overfill it.  Queries lock one node at a time, so
        they see each node before or after the batch, never half of it.
        """
        stats.nodes_visited += 1
        coords, measures, words, mlist = rows
        if node.is_leaf and node.size + hi - lo > self.config.leaf_capacity:
            stats.repacks += 1
            nodes = self._pack_leaves(
                np.concatenate([node.leaf_coords(), coords[lo:hi]]),
                np.concatenate([node.leaf_measures(), measures[lo:hi]]),
                np.concatenate([node.cols.live_hwords(), words[lo:hi]]),
            )
            stats.splits += len(nodes) - 1
            return nodes
        if node.is_leaf:
            node.cols.extend(coords[lo:hi], measures[lo:hi], words[lo:hi])
        if self.policy.expand_points(node.key, coords[lo:hi]):
            node.key_version += 1
            stats.key_expansions += 1
        m = mlist[lo:hi]
        node.agg.merge(Aggregate(hi - lo, sum(m), min(m), max(m)))
        if node.lhv is None or keys[hi - 1] > node.lhv:
            node.lhv = keys[hi - 1]
        if node.is_leaf:
            return [node]
        old = node.children
        lhvs = [c.lhv for c in old]
        last = len(old) - 1
        children: list[Node] = []
        done = 0  # old[:done] are placed
        while lo < hi:
            i = min(bisect_left(lhvs, keys[lo]), last)
            end = hi if i == last else bisect_right(keys, lhvs[i], lo, hi)
            children += old[done:i]
            old[i].acquire()
            try:
                children += self._descend(old[i], rows, keys, lo, end, stats)
            finally:
                old[i].release()
            done, lo = i + 1, end
        children += old[done:]
        node.children = children
        if len(children) <= self.config.fanout:
            return [node]
        nodes = self._pack_dirs(children)
        stats.splits += len(nodes) - 1
        return nodes

    # -- packing: the one place rows become leaves and nodes directories ----

    def _leaves(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        words: np.ndarray,
        starts: np.ndarray,
    ) -> list[Node]:
        """New leaves over key-sorted rows, leaf ``i`` holding rows
        ``starts[i]`` up to the next start: LHV = its last row's key,
        aggregate over its rows, and the keys of all of them computed
        in one pass (:meth:`~repro.core.keypolicy.KeyPolicy.segment_keys`)."""
        keys = self.policy.segment_keys(coords, starts)
        bounds = starts.tolist() + [len(measures)]
        out = []
        for key, s, e in zip(keys, bounds, bounds[1:]):
            leaf = self._new_leaf(key)
            leaf.cols.set_rows(coords[s:e], measures[s:e], words[s:e])
            leaf.lhv = key_from_words(words[e - 1])
            leaf.cols.reaggregate()
            out.append(leaf)
        return out

    def _pack_leaves(
        self, coords: np.ndarray, measures: np.ndarray, words: np.ndarray
    ) -> list[Node]:
        """Sort rows by packed Hilbert key and pack them into leaves at
        3/4 fill (the bulk-load rule)."""
        order = lexsort_words(words)
        fill = max(2, (self.config.leaf_capacity * 3) // 4)
        return self._leaves(
            coords[order],
            measures[order],
            words[order],
            np.arange(0, len(order), fill),
        )

    def _pack_dirs(self, nodes: list[Node]) -> list[Node]:
        """One directory level over ``nodes`` (kept in order) at 3/4
        fanout."""
        fill = max(2, (self.config.fanout * 3) // 4)
        return [
            self._build_dir(nodes[s : s + fill])
            for s in range(0, len(nodes), fill)
        ]

    def _pack_root(self, nodes: list[Node]) -> Node:
        """Stack directory levels over ``nodes`` until one root is left."""
        while len(nodes) > 1:
            nodes = self._pack_dirs(nodes)
        return nodes[0]

    # -- bulk load: sort by Hilbert key and pack bottom-up ------------------

    @classmethod
    def from_batch(cls, schema, batch: RecordBatch, config=None):
        """Bulk load by Hilbert sort + bottom-up packing.

        This is the fast path behind VOLAP's bulk ingestion (paper
        Section IV-C: >400k items/s vs ~50k/s point insertion): one key
        computation and O(1) packing work per item, no per-item descent.
        """
        tree = cls(schema, config)
        if len(batch):
            kwords = tree.mapper.key_words(batch.coords)
            tree.root = tree._pack_root(
                tree._pack_leaves(batch.coords, batch.measures, kwords)
            )
            tree._count = len(batch)
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
