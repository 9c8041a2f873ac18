"""Top-down insert engine with pessimistic lock coupling.

All four tree variants insert the same way structurally: descend from
the root choosing one child per level, expand keys/aggregates along the
path, append to a leaf, and split bottom-up on overflow.  They differ
only in *how a child is chosen* and *where a node is split* -- which are
the two hooks subclasses provide.

Concurrency follows the PDC-tree protocol (paper Section III-C/D):
operations hold at most a short suffix of path locks.  We use classic
pessimistic coupling: a node's lock is released as soon as a descendant
proves *safe* (cannot split), so in the common case only one or two
locks are held at a time, and splits always own every node they touch.
With ``thread_safe=False`` all lock calls are no-ops.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import (
    key_from_words,
    lexsort_words,
    pack_key,
    words_gt,
)
from .aggregates import Aggregate
from .base import BaseTree
from .config import OpStats
from .node import Node

__all__ = ["InsertEngineTree"]


class InsertEngineTree(BaseTree):
    """BaseTree plus the shared top-down insert implementation."""

    def __init__(self, schema, config=None):
        super().__init__(schema, config)
        # Guards the root pointer; only contended while the root is full.
        self._tree_lock: Optional[threading.RLock] = (
            threading.RLock() if self.config.thread_safe else None
        )

    # -- hooks ----------------------------------------------------------

    def _choose_child(
        self, node: Node, coords: np.ndarray, hkey: Optional[int]
    ) -> int:
        raise NotImplementedError

    def _split_node(self, node: Node) -> tuple[Node, Node]:
        """Split an over-full node into two; returns (left, right)."""
        raise NotImplementedError

    def _hilbert_key(self, coords: np.ndarray) -> Optional[int]:
        """Hilbert key for an item; None in geometric trees."""
        return None

    def _hilbert_key_words(self, coords: np.ndarray) -> Optional[np.ndarray]:
        """Packed ``(n, w)`` uint64 key words; None in geometric trees."""
        return None

    # -- engine -----------------------------------------------------------

    def _node_safe(self, node: Node) -> bool:
        if node.is_leaf:
            return node.size < self.config.leaf_capacity
        return len(node.children) < self.config.fanout

    def insert(self, coords: np.ndarray, measure: float) -> OpStats:
        coords = np.asarray(coords, dtype=np.int64)
        stats = OpStats()
        hkey = self._hilbert_key(coords)

        if self._tree_lock is not None:
            self._tree_lock.acquire()
        tree_locked = self.config.thread_safe
        held: list[tuple[Node, int]] = []  # (locked ancestor, child index)
        node = self.root
        node.acquire()
        try:
            while True:
                stats.nodes_visited += 1
                if self._node_safe(node):
                    for anc, _ in held:
                        anc.release()
                    held.clear()
                    if tree_locked:
                        self._tree_lock.release()
                        tree_locked = False
                # Expand this node's key and aggregate for the new item.
                if self.policy.expand_point(node.key, coords):
                    node.key_version += 1
                    stats.key_expansions += 1
                node.agg.add_value(measure)
                if hkey is not None and (node.lhv is None or hkey > node.lhv):
                    node.lhv = hkey
                if node.is_leaf:
                    break
                idx = self._choose_child(node, coords, hkey)
                child = node.children[idx]
                child.acquire()
                held.append((node, idx))
                node = child

            node.append_item(coords, measure, hkey)
            self._count += 1
            self._propagate_splits(node, held, stats)
        finally:
            for anc, _ in held:
                anc.release()
            if tree_locked:
                self._tree_lock.release()
        return stats

    def _propagate_splits(
        self, node: Node, held: list[tuple[Node, int]], stats: OpStats
    ) -> None:
        """Bottom-up split propagation through the held (locked) suffix.

        Releases ``node`` and every ancestor it pops off ``held``; the
        caller still owns (and must release) whatever remains in
        ``held``.
        """
        current = node
        while (
            current.size > self.config.leaf_capacity
            if current.is_leaf
            else len(current.children) > self.config.fanout
        ):
            left, right = self._split_node(current)
            stats.splits += 1
            if held:
                parent, idx = held.pop()
                parent.children[idx] = left
                parent.children.insert(idx + 1, right)
                current.release()
                current = parent
            else:
                # The root itself split: grow the tree by one level.
                new_root = self._new_dir()
                new_root.children = [left, right]
                new_root.key = self.policy.union_of(
                    [left.key, right.key], self.num_dims
                )
                new_root.agg = left.agg.merged(right.agg)
                if left.lhv is not None:
                    new_root.lhv = max(left.lhv, right.lhv)
                current.release()
                self.root = new_root
                return
        current.release()

    # -- batched insert ----------------------------------------------------

    def insert_batch(self, batch) -> OpStats:
        """Insert a whole batch as Hilbert-sorted ordered runs.

        Keys for the full batch come from the vectorized kernel; the
        sorted records are then inserted run by run, where a *run* is a
        maximal prefix of the remaining records that provably routes to
        the leaf found by a single descent -- amortizing descents, key
        expansions and lock traffic over the run.  Geometric trees have
        no key order to exploit and fall back to per-record inserts.
        """
        stats = OpStats()
        n = len(batch)
        if n == 0:
            return stats
        kwords = self._hilbert_key_words(batch.coords)
        if kwords is None:
            for coords, measure in batch.iter_rows():
                stats.merge(self.insert(coords, measure))
            return stats
        # stable word-lexicographic sort == stable sort by Python ints
        order = lexsort_words(kwords)
        coords = np.asarray(batch.coords, dtype=np.int64)
        measures = np.asarray(batch.measures, dtype=np.float64)
        pos = 0
        while pos < n:
            pos = self._insert_run(coords, measures, kwords, order, pos, stats)
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

        Merges the leaf's columns with the run, re-sorts by packed
        Hilbert key, packs leaves at 3/4 fill (the bulk-load rule), and
        splices them into the parent -- three broadcast gathers per new
        leaf.  Any directory node the splice overfills is likewise
        repacked into 3/4-full groups, bottom-up through the locked
        path.  Only runs in Hilbert trees (the only trees with batch
        runs), whose ``_build_dir`` rebuilds directory nodes.
        """
        m = leaf.size + len(run_words)
        stats.repacks += 1
        all_coords = np.concatenate([leaf.leaf_coords(), run_coords])
        all_measures = np.concatenate([leaf.leaf_measures(), run_measures])
        all_words = np.concatenate([leaf.cols.live_hwords(), run_words])
        order = lexsort_words(all_words)
        fill = max(2, (self.config.leaf_capacity * 3) // 4)
        nodes: list[Node] = []
        for s in range(0, m, fill):
            idx = order[s : s + fill]
            out = self._new_leaf()
            out.cols.set_rows(
                all_coords[idx], all_measures[idx], all_words[idx]
            )
            out.lhv = key_from_words(all_words[int(idx[-1])])
            out.cols.reaggregate()
            self.policy.expand_points(out.key, out.leaf_coords())
            nodes.append(out)
        stats.splits += len(nodes) - 1
        leaf.release()
        dir_fill = max(2, (self.config.fanout * 3) // 4)
        while True:
            if not held:
                # the splice reached (or started at) the root
                while len(nodes) > 1:
                    nodes = [
                        self._build_dir(nodes[s : s + dir_fill])
                        for s in range(0, len(nodes), dir_fill)
                    ]
                self.root = nodes[0]
                return
            parent, idx = held.pop()
            parent.children[idx : idx + 1] = nodes
            if len(parent.children) <= self.config.fanout:
                parent.release()
                return
            children = parent.children
            nodes = [
                self._build_dir(children[s : s + dir_fill])
                for s in range(0, len(children), dir_fill)
            ]
            stats.splits += len(nodes) - 1
            parent.release()

    # -- bulk load ---------------------------------------------------------

    @classmethod
    def from_batch(cls, schema, batch, config=None):
        """Bulk load (default: repeated insert; Hilbert trees pack)."""
        tree = cls(schema, config)
        for coords, measure in batch.iter_rows():
            tree.insert(coords, measure)
        return tree
