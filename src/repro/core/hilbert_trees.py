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

Key order also makes batches cheap: ``insert_batch`` inserts sorted
ordered runs, and a run that overflows its leaf is repacked by the same
packer a bulk load uses -- rows in key order into 3/4-full leaves, nodes
into 3/4-full directories.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import (
    key_from_words,
    lexsort_words,
    pack_key,
    words_gt,
)
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
        return (
            self._leaf(cols.coords, cols.measures, cols.hwords, order[:split_at]),
            self._leaf(cols.coords, cols.measures, cols.hwords, order[split_at:]),
        )

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

    # -- batched insert ----------------------------------------------------

    def insert_batch(self, batch: RecordBatch) -> OpStats:
        """Insert a whole batch as Hilbert-sorted ordered runs.

        Keys for the full batch come from the vectorized kernel; the
        sorted records are then inserted run by run, where a *run* is a
        maximal prefix of the remaining records that provably routes to
        the leaf found by a single descent -- amortizing descents, key
        expansions and lock traffic over the run.
        """
        stats = OpStats()
        n = len(batch)
        if n == 0:
            return stats
        kwords = self.mapper.key_words(batch.coords)
        # stable word-lexicographic sort == stable sort by Python ints
        order = lexsort_words(kwords)
        pos = 0
        while pos < n:
            pos = self._insert_run(
                batch.coords, batch.measures, kwords, order, pos, stats
            )
        return stats

    def _insert_run(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        kwords: np.ndarray,
        order: np.ndarray,
        pos: int,
        stats: OpStats,
    ) -> int:
        """Insert one maximal ordered run; returns the next position.

        Descends once for ``order[pos]`` holding the *full* path locked
        (locks are still taken parent-before-child, so this composes
        with hand-over-hand queries and per-record inserts), then
        accepts each following sorted key ``k`` while it provably
        re-routes to the same leaf:

        * the descent fell through to the last child at every level
          (earlier siblings all have LHV < the run's first key <= k, and
          a last child absorbs any larger key), or
        * ``k`` <= the leaf's pre-run LHV ``bound`` (then at every level
          the chosen child was a first-match whose LHV >= ``bound`` and
          it stays the first match for ``k``).

        When a run overflows its leaf, the leaf's items and the whole
        run are merged, re-sorted and repacked into several
        Hilbert-ordered leaves spliced in place of the old one (dir
        nodes overfull from the splice repack the same way, bottom-up)
        -- one linear packing pass instead of a cascade of split scans.
        Key/aggregate/LHV updates commit per-run while the whole path
        is locked, so queries never observe a torn path.
        """
        first = int(order[pos])
        hkey0 = key_from_words(kwords[first])
        if self._tree_lock is not None:
            self._tree_lock.acquire()
        held: list[tuple[Node, int]] = []
        node = self.root
        node.acquire()
        try:
            rightmost = True
            while not node.is_leaf:
                stats.nodes_visited += 1
                idx = self._choose_child(node, coords[first], hkey0)
                rightmost = rightmost and idx == len(node.children) - 1
                child = node.children[idx]
                child.acquire()
                held.append((node, idx))
                node = child
            stats.nodes_visited += 1
            bound = node.lhv  # pre-run LHV; None only for an empty root leaf
            n = len(order)
            end = pos + 1
            if rightmost:
                end = n
            elif bound is not None:
                bound_words = pack_key(bound, kwords.shape[1])
                while end < n:
                    if words_gt(kwords[order[end]], bound_words):
                        break
                    end += 1
            run = order[pos:end]
            run_max = key_from_words(kwords[int(run[-1])])
            run_coords = coords[run]
            run_measures = measures[run]
            run_agg = Aggregate.of_array(run_measures)
            for path_node, _ in held:
                if self.policy.expand_points(path_node.key, run_coords):
                    path_node.key_version += 1
                    stats.key_expansions += 1
                path_node.agg.merge(run_agg)
                if path_node.lhv is None or run_max > path_node.lhv:
                    path_node.lhv = run_max
            self._count += len(run)
            if node.size + len(run) <= self.config.leaf_capacity:
                node.cols.extend(run_coords, run_measures, kwords[run])
                if node.lhv is None or run_max > node.lhv:
                    node.lhv = run_max
                if self.policy.expand_points(node.key, run_coords):
                    node.key_version += 1
                    stats.key_expansions += 1
                node.agg.merge(run_agg)
                self._propagate_splits(node, held, stats)
            else:
                self._repack_overflow(node, run_coords, run_measures,
                                      kwords[run], held, stats)
            return end
        finally:
            for anc, _ in held:
                anc.release()
            if self._tree_lock is not None:
                self._tree_lock.release()

    def _repack_overflow(
        self,
        leaf: Node,
        run_coords: np.ndarray,
        run_measures: np.ndarray,
        run_words: np.ndarray,
        held: list[tuple[Node, int]],
        stats: OpStats,
    ) -> None:
        """Replace an overflowing leaf by several packed leaves.

        Merges the leaf's columns with the run, re-packs them the
        bulk-load way (:meth:`_pack_leaves`) and splices the new leaves
        into the parent.  Any directory node the splice overfills is
        likewise repacked into 3/4-full groups (:meth:`_pack_dirs`),
        bottom-up through the locked path.
        """
        stats.repacks += 1
        nodes = self._pack_leaves(
            np.concatenate([leaf.leaf_coords(), run_coords]),
            np.concatenate([leaf.leaf_measures(), run_measures]),
            np.concatenate([leaf.cols.live_hwords(), run_words]),
        )
        stats.splits += len(nodes) - 1
        leaf.release()
        while held:
            parent, idx = held.pop()
            parent.children[idx : idx + 1] = nodes
            if len(parent.children) <= self.config.fanout:
                parent.release()
                return
            nodes = self._pack_dirs(parent.children)
            stats.splits += len(nodes) - 1
            parent.release()
        # the splice reached (or started at) the root
        self.root = self._pack_root(nodes)

    # -- packing: the one place rows become leaves and nodes directories ----

    def _leaf(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        words: np.ndarray,
        idx: np.ndarray,
    ) -> Node:
        """A new leaf holding rows ``idx`` (ascending key order) of the
        given columns: LHV = the last row's key, aggregate and key
        computed over the rows."""
        out = self._new_leaf()
        out.cols.set_rows(coords[idx], measures[idx], words[idx])
        out.lhv = key_from_words(words[int(idx[-1])])
        out.cols.reaggregate()
        self.policy.expand_points(out.key, out.leaf_coords())
        return out

    def _pack_leaves(
        self, coords: np.ndarray, measures: np.ndarray, words: np.ndarray
    ) -> list[Node]:
        """Sort rows by packed Hilbert key and pack them into leaves at
        3/4 fill (the bulk-load rule)."""
        order = lexsort_words(words)
        fill = max(2, (self.config.leaf_capacity * 3) // 4)
        return [
            self._leaf(coords, measures, words, order[s : s + fill])
            for s in range(0, len(order), fill)
        ]

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
