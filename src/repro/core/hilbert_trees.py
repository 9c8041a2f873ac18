"""Hilbert-ordered insertion: the Hilbert PDC tree and Hilbert R-tree.

The Hilbert PDC tree is the paper's core contribution (Section III-D).
Items map to compact Hilbert indices of their hierarchy-expanded IDs
(:class:`~repro.hilbert.id_expansion.HilbertKeyMapper`); every node
tracks the largest Hilbert value (LHV) in its subtree and children are
kept in LHV order.  Insertion then works like a B+ tree -- descend to
the first child whose LHV is >= the item's key -- with *no geometric
computations at all*, which is why ingestion is much faster than in the
PDC tree and nearly flat in the number of dimensions (paper Fig. 5a).

``insert_batch`` sorts a batch by key once and inserts it in one
descent, under the tree's one lock, each directory dealing its slice of
the sorted keys out among its children by LHV, so a touched node is
updated once per batch.  ``insert`` is the same descent for a batch of
one row.  Only the entry point decides
what becomes of a node it overfills: a batch repacks it the way a bulk
load packs -- rows in key order into 3/4-full leaves, nodes into
3/4-full directories -- while a row cuts it in two.  Child order is
fixed by the curve, so R-tree split heuristics cannot apply: the
Hilbert PDC tree cuts where the two sides overlap least
(:meth:`~repro.core.keypolicy.KeyPolicy.least_overlap_split`, one
linear scan), the plain Hilbert R-tree at the middle.  One leaf builder
makes every new leaf, computing all their keys in one vectorized pass
(:meth:`~repro.core.keypolicy.KeyPolicy.segment_keys`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import key_from_words, lexsort_words, pack_key
from ..hilbert.id_expansion import HilbertKeyMapper
from ..olap.records import RecordBatch
from .aggregates import Aggregate
from .base import BaseTree
from .config import OpStats, TreeConfig
from .node import Node

__all__ = ["HilbertTree", "HilbertPDCTree", "HilbertRTree"]

_LHV = attrgetter("lhv")


class HilbertTree(BaseTree):
    """Shared implementation of the Hilbert tree family."""

    def __init__(self, schema, config=None):
        # the mapper must exist before BaseTree.__init__ creates the
        # root leaf, whose arena is sized by _leaf_key_words()
        cfg = config if config is not None else self._default_config()
        self.mapper = HilbertKeyMapper(schema, expand=cfg.hilbert_expand_ids)
        super().__init__(schema, cfg)

    @property
    def uses_hilbert(self) -> bool:
        return True

    def _leaf_key_words(self) -> int:
        return self.mapper.word_count

    def key_words(self, coords: np.ndarray) -> np.ndarray:
        return self.mapper.key_words(coords)

    # -- the two entry points: a row, or a batch, into one descent ---------

    def insert(self, coords: np.ndarray, measure: float) -> OpStats:
        """Insert one row: the descent of a one-row batch, keyed by the
        scalar kernel, cutting each node it overfills in two
        (:meth:`_split_at`)."""
        coords = self._rows(coords)
        key = self.mapper.key(coords)
        words = pack_key(key, self.mapper.word_count)[None]
        mlist = [float(measure)]
        return self._insert_sorted((coords[None], mlist, words, mlist), [key], True)

    def insert_batch(
        self, batch: RecordBatch, words: Optional[np.ndarray] = None
    ) -> OpStats:
        """Insert a whole batch in one descent (:meth:`_descend`) over the
        rows sorted by key -- ``words``, the :meth:`key_words` of the
        rows when the caller has them -- so that every node the batch
        touches is visited and updated once; a node the batch
        overfills is repacked."""
        self._rows(batch.coords)
        if not len(batch):
            return OpStats()
        if words is None:
            words = self.mapper.key_words(batch.coords)
        order = lexsort_words(words)
        words, measures = words[order], batch.measures[order]
        rows = (batch.coords[order], measures, words, measures.tolist())
        keys = words[:, 0].tolist()  # the sorted keys as ints, for bisect
        for col in words.T[1:]:
            keys = [(k << 64) | w for k, w in zip(keys, col.tolist())]
        return self._insert_sorted(rows, keys, False)

    def _insert_sorted(self, rows: tuple, keys: list[int], cut: bool) -> OpStats:
        """Run :meth:`_descend` from the root, under the tree lock, over
        ``rows`` -- coords, measures, key words and the measures as a
        list (a lone row's one-item list serves as both) -- sorted by
        ``keys``, and stack directories over whatever replaces the
        root.  The slots of the leaves the descent repacked are freed
        last, when no node of the tree points to those leaves."""
        stats = OpStats()
        with self.lock:
            self._replaced: list[int] = []  # slots of repacked leaves
            root = self.root
            nodes = self._descend(root, rows, keys, 0, len(keys), cut, stats)
            if nodes[0] is not root:
                self.root = self._pack_root(nodes)
            self._count += len(keys)
            # the repacked leaves are out of the tree now: free their slots
            for slot in self._replaced:
                self.arena.release(slot)
        return stats

    def _descend(
        self, node: Node, rows: tuple, keys: list[int], lo: int, hi: int, cut: bool,
        stats: OpStats,
    ) -> list[Node]:
        """Insert sorted rows ``lo:hi`` below ``node``; returns the nodes
        that take its place.

        A leaf the rows fit in grows by them; one they overflow is
        rebuilt with them (:meth:`_pack_leaves`).  A directory grows
        its key, aggregate and LHV by the whole slice, hands child ``i``
        the keys up to its LHV (the last child the rest: a B+-tree
        descent), and -- only if some child was replaced -- takes the
        replacements as its children
        (:meth:`~repro.core.node.Node.set_children`), or is rebuilt
        (:meth:`_pack_dirs`) if they overfill it.  ``cut`` rebuilds an
        overfull node as two at the split rule's cut, else it is
        repacked at 3/4 fill.
        """
        stats.nodes_visited += 1
        coords, measures, words, mlist = rows
        part = coords[lo:hi]
        arena, slot = self.arena, node.slot  # None in a directory
        leaf = slot is not None
        if leaf and arena.size(slot) + hi - lo > self.config.leaf_capacity:
            stats.repacks += not cut
            nodes = self._pack_leaves(
                np.concatenate([arena.coords(slot), part]),
                np.concatenate([arena.measures(slot), measures[lo:hi]]),
                np.concatenate([arena.hwords(slot), words[lo:hi]]),
                cut,
            )
            self._replaced.append(slot)
            stats.splits += len(nodes) - 1
            return nodes
        if leaf:
            arena.extend(slot, part, measures[lo:hi], words[lo:hi])
        if hi - lo == 1:  # a lone row: the scalar updates, several times cheaper
            grew = node.key.expand_point_inplace(coords[lo])
            node.agg.add_value(mlist[lo])
        else:
            grew = node.key.expand_points_inplace(part)
            m = mlist[lo:hi]
            node.agg.merge(Aggregate(hi - lo, sum(m), min(m), max(m)))
        if grew:
            stats.key_expansions += 1
        if node.lhv is None or keys[hi - 1] > node.lhv:
            node.lhv = keys[hi - 1]
        if leaf:
            return [node]
        children = node.children
        last = len(children) - 1
        swaps = []  # (i, the nodes that replace children[i])
        while lo < hi:
            i = min(bisect_left(children, keys[lo], key=_LHV), last)
            child = children[i]
            end = hi if i == last else bisect_right(keys, child.lhv, lo, hi)
            nodes = self._descend(child, rows, keys, lo, end, cut, stats)
            if nodes[0] is not child:
                swaps.append((i, nodes))
            lo = end
        if not swaps:
            return [node]
        children = list(children)
        for i, nodes in reversed(swaps):
            children[i : i + 1] = nodes
        if len(children) <= self.config.fanout:
            node.set_children(children)
            return [node]
        nodes = self._pack_dirs(children, cut)
        stats.splits += len(nodes) - 1
        return nodes

    def _split_at(self, entries: list, grow) -> int:
        """Where to cut ``entries`` (rows or child keys, in Hilbert
        order, each grown into a side's key by ``grow``) in two."""
        if self.config.split_policy == "middle":
            return len(entries) // 2
        return self.policy.least_overlap_split(entries, grow, self.num_dims)

    # -- packing: the one place rows become leaves and nodes directories ----

    def _leaves(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        words: np.ndarray,
        starts: np.ndarray,
    ) -> list[Node]:
        """New leaves over key-sorted rows, leaf ``i`` holding rows
        ``starts[i]`` up to the next start: their rows written into the
        arena in one assignment per column
        (:meth:`~repro.core.columns.LeafArena.fill`), LHV = its last
        row's key, aggregate over its rows, and the keys of all of them
        computed in one pass
        (:meth:`~repro.core.keypolicy.KeyPolicy.segment_keys`)."""
        keys = self.policy.segment_keys(coords, starts)
        ends = starts.tolist()[1:] + [len(measures)]
        arena = self.arena
        out = []
        for key, slot, e in zip(keys, arena.fill(coords, measures, words, starts), ends):
            leaf = Node(key, slot=slot)
            leaf.lhv = key_from_words(words[e - 1])
            leaf.agg = Aggregate.of_array(arena.measures(slot))
            out.append(leaf)
        return out

    def _leaf_fill(self) -> int:
        """Rows per leaf of a repack or a bulk load: 3/4 full."""
        return max(2, (self.config.leaf_capacity * 3) // 4)

    def _pack_leaves(
        self, coords: np.ndarray, measures: np.ndarray, words: np.ndarray, cut: bool = False
    ) -> list[Node]:
        """Sort rows by packed Hilbert key and pack them into leaves:
        two at the split rule's cut when ``cut``, else at 3/4 fill (the
        bulk-load rule)."""
        order = lexsort_words(words)
        coords = coords[order]
        if cut:
            grow = type(self.root.key).expand_point_inplace
            starts = np.array([0, self._split_at(list(coords), grow)])
        else:
            starts = np.arange(0, len(order), self._leaf_fill())
        return self._leaves(coords, measures[order], words[order], starts)

    def _pack_dirs(self, nodes: list[Node], cut: bool = False) -> list[Node]:
        """One directory level over ``nodes`` (kept in order): two at
        the split rule's cut when ``cut``, else at 3/4 fanout."""
        if cut:
            at = self._split_at(
                [c.key for c in nodes], type(nodes[0].key).expand_inplace
            )
            return [self._build_dir(nodes[:at]), self._build_dir(nodes[at:])]
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
        tree._rows(batch.coords)
        if len(batch):
            # the arena's first chunk holds exactly the packed leaves
            tree.arena.restart(-(-len(batch) // tree._leaf_fill()))
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
