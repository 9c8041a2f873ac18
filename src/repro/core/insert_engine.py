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

    def _split_leaf(self, leaf: Node) -> tuple[Node, Node]:
        """Split an over-full leaf into two; returns (left, right)."""
        raise NotImplementedError

    def _split_dir(self, node: Node) -> tuple[Node, Node]:
        """Split an over-full directory into two; returns (left, right)."""
        raise NotImplementedError

    def _hilbert_key(self, coords: np.ndarray) -> Optional[int]:
        """Hilbert key for an item; None in geometric trees."""
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
                if node.key.expand_point_inplace(coords):
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
            left, right = (
                self._split_leaf(current)
                if current.is_leaf
                else self._split_dir(current)
            )
            stats.splits += 1
            if held:
                parent, idx = held.pop()
                parent.children[idx] = left
                parent.children.insert(idx + 1, right)
                current.release()
                current = parent
            else:
                # The root itself split: grow the tree by one level.
                new_root = self._build_dir([left, right])
                current.release()
                self.root = new_root
                return
        current.release()

    def _build_dir(self, children: list[Node]) -> Node:
        """A directory over ``children``: their key union, merged
        aggregate, and -- when the children carry one -- largest LHV."""
        out = self._new_dir()
        out.children = children
        out.key = self.policy.union_of([c.key for c in children], self.num_dims)
        agg = Aggregate.empty()
        for c in children:
            agg.merge(c.agg)
        out.agg = agg
        if children[0].lhv is not None:
            out.lhv = max(c.lhv for c in children)
        return out

    # -- bulk load ---------------------------------------------------------

    @classmethod
    def from_batch(cls, schema, batch, config=None):
        """Bulk load through :meth:`insert_batch` (Hilbert trees pack)."""
        tree = cls(schema, config)
        tree.insert_batch(batch)
        return tree
