"""Tree nodes shared by all PDC / Hilbert-PDC / R-tree variants.

A node is either a *leaf* holding columnar item storage (a
:class:`~repro.core.columns.LeafColumns` of preallocated numpy buffers)
or a *directory* holding a list of children.  Every node carries:

* ``key`` -- its bounding key, a Box or an MDS (the tree's key kind),
  which answers the key operations itself;
* ``agg`` -- the cached aggregate of the whole subtree (for leaves this
  is the accumulator living inside the columns);
* ``lhv`` -- the largest Hilbert value in the subtree (Hilbert variants
  only; ``None`` in geometric trees);
* ``lock`` -- an RLock when the tree is configured thread-safe;
* ``key_version`` / ``packed`` -- the packed-key snapshot the read
  engine prunes with (see :meth:`Node.packed_children`).

Leaves in Hilbert trees keep per-item Hilbert keys packed as big-endian
uint64 word rows inside the columns -- no per-record Python objects.
A node has no insert logic of its own: the trees write its columns
(one row at a time in geometric leaves, key-sorted blocks with their
key words in Hilbert leaves) and update ``key``, ``agg`` and ``lhv``.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

import numpy as np

from .aggregates import Aggregate
from .columns import LeafColumns

__all__ = ["Node"]


class Node:
    __slots__ = (
        "key",
        "_agg",
        "children",
        "cols",
        "_size",
        "lhv",
        "lock",
        "key_version",
        "packed",
    )

    def __init__(
        self,
        key: Any,
        *,
        leaf: bool,
        capacity: int = 0,
        num_dims: int = 0,
        key_words: int = 0,
        thread_safe: bool = False,
    ):
        self.key = key
        self.lhv: Optional[int] = None
        #: bumped on every in-place mutation of ``key``; lets a parent's
        #: packed-key cache detect stale snapshots structurally
        self.key_version = 0
        #: (child objects, child key versions, PackedKeys) or None
        self.packed = None
        self.lock: Optional[threading.RLock] = (
            threading.RLock() if thread_safe else None
        )
        self._size = 0
        if leaf:
            self.children = None
            self.cols = LeafColumns(capacity, num_dims, key_words)
            self._agg = None
        else:
            self.children: Optional[list["Node"]] = []
            self.cols = None
            self._agg = Aggregate.empty()

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    # -- delegated leaf state ---------------------------------------------

    @property
    def agg(self) -> Aggregate:
        cols = self.cols
        return cols.agg if cols is not None else self._agg

    @agg.setter
    def agg(self, value: Aggregate) -> None:
        cols = self.cols
        if cols is not None:
            cols.agg = value
        else:
            self._agg = value

    @property
    def size(self) -> int:
        cols = self.cols
        return cols.size if cols is not None else self._size

    @size.setter
    def size(self, value: int) -> None:
        cols = self.cols
        if cols is not None:
            cols.size = value
        else:
            self._size = value

    # -- leaf item access -------------------------------------------------

    def leaf_coords(self) -> np.ndarray:
        """View of the live coordinate rows of a leaf."""
        return self.cols.live_coords()

    def leaf_measures(self) -> np.ndarray:
        return self.cols.live_measures()

    def leaf_hkeys(self) -> list[int]:
        """Live Hilbert keys as Python ints (tests / validation only)."""
        return self.cols.key_ints()

    def packed_children(self, policy, num_dims: int):
        """``(children, key versions, PackedKeys)`` of this directory, cached.

        The read engine decides every child of a directory from this
        snapshot in one broadcast.  Validity is structural, no explicit
        invalidation hook needed: splits / repacks / bulk rebuilds
        always install *new* child objects (checked by identity), and
        the only in-place child-key mutations are the insert path's key
        expansions, which bump the child's ``key_version``.  Callers
        must hold this node's lock so the children list cannot change
        while the snapshot is read or rebuilt.  The children's own
        locks are not taken, so the versions are read *before* the keys
        are packed: a key that grows meanwhile leaves a snapshot whose
        recorded version is already behind, never one that vouches for
        a key it did not pack.
        """
        children = self.children
        versions = [c.key_version for c in children]
        cached = self.packed
        # nodes compare by identity, so both tests are one C-level pass
        if (
            cached is not None
            and cached[0] == children
            and cached[1] == versions
        ):
            return cached
        packed = policy.pack_keys([c.key for c in children], num_dims)
        self.packed = cached = (list(children), versions, packed)
        return cached

    def acquire(self) -> None:
        if self.lock is not None:
            self.lock.acquire()

    def release(self) -> None:
        if self.lock is not None:
            self.lock.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"dir[{len(self.children)}]"
        return f"Node({kind}, n={self.agg.count})"
