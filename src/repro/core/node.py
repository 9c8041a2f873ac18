"""Tree nodes shared by all PDC / Hilbert-PDC / R-tree variants.

A node is either a *leaf*, whose rows are one slot of its tree's column
arena (:class:`~repro.core.columns.LeafArena`), or a *directory*
holding a list of children.  Every node carries:

* ``key`` -- its bounding key, an instance of the tree's key class
  (:attr:`~repro.core.base.BaseTree.key_class`, a Box or an MDS),
  which answers the key operations itself;
* ``agg`` -- the cached aggregate of the whole subtree, one per node,
  leaves included;
* ``lhv`` -- the largest Hilbert value in the subtree (Hilbert variants
  only; ``None`` in geometric trees);
* ``slot`` -- in a leaf, its arena slot (``None`` in a directory): the
  arena reads and writes the leaf's rows by it;
* ``block`` -- in a directory, its children's keys as one block (the
  key class's ``stack``): child ``i``'s key is a view of row ``i``, so
  a child's key grows inside its parent's block, and the read engine
  decides all children from the block as it is.  The root's key keeps
  its own array;
* ``slots`` -- in a directory whose children are all leaves, their
  arena slots as one int array beside ``block``, so the read engine
  maps the leaves it hits to slots without touching them.

:meth:`Node.set_children` is the one place a directory's children, its
block and its slots are set.  A node has no lock: its tree's one lock
(:attr:`~repro.core.base.BaseTree.lock`) is held for each whole call,
so no reader sees a node between two writes.

A node has no insert logic of its own: the trees write a leaf's rows
through the arena (one row at a time in geometric leaves, key-sorted
blocks with their key words in Hilbert leaves) and update ``key``,
``agg`` and ``lhv``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .aggregates import Aggregate

__all__ = ["Node"]


class Node:
    __slots__ = ("key", "agg", "children", "slot", "lhv", "block", "slots")

    def __init__(self, key: Any, *, slot: Optional[int] = None):
        """A leaf on arena ``slot``, or a directory when ``slot`` is None."""
        self.key = key
        self.agg = Aggregate.empty()
        self.lhv: Optional[int] = None
        self.block: Optional[np.ndarray] = None
        self.slots: Optional[np.ndarray] = None
        self.slot = slot
        self.children: Optional[list["Node"]] = None if slot is not None else []

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def set_children(self, children: list["Node"]) -> None:
        """Make ``children`` this directory's: their keys are stacked
        into one block and each child's key rebound to view its row;
        leaf children's slots are kept beside it."""
        self.block = type(children[0].key).stack([c.key for c in children], bind=True)
        self.slots = (
            np.array([c.slot for c in children])
            if all(c.slot is not None for c in children)
            else None
        )
        self.children = children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"dir[{len(self.children)}]"
        return f"Node({kind}, n={self.agg.count})"
