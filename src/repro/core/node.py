"""Tree nodes shared by all PDC / Hilbert-PDC / R-tree variants.

A node is either a *leaf*, whose rows are a
:class:`~repro.core.columns.LeafColumns` -- views of one slot of its
tree's column arena (:class:`~repro.core.columns.LeafArena`) -- or a
*directory* holding a list of children.  Every node carries:

* ``key`` -- its bounding key, a Box or an MDS (the tree's key kind),
  which answers the key operations itself;
* ``agg`` -- the cached aggregate of the whole subtree (for leaves this
  is the accumulator living inside the columns);
* ``lhv`` -- the largest Hilbert value in the subtree (Hilbert variants
  only; ``None`` in geometric trees);
* ``block`` -- in a directory, its children's keys as one block (the
  key kind's ``stack``): child ``i``'s key is a view of row ``i``, so
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

Leaves in Hilbert trees keep per-item Hilbert keys packed as big-endian
uint64 word rows inside the columns -- no per-record Python objects.
A node has no insert logic of its own: the trees write its columns
(one row at a time in geometric leaves, key-sorted blocks with their
key words in Hilbert leaves) and update ``key``, ``agg`` and ``lhv``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .aggregates import Aggregate
from .columns import LeafColumns

__all__ = ["Node"]


class Node:
    __slots__ = ("key", "_agg", "children", "cols", "lhv", "block", "slots")

    def __init__(self, key: Any, *, cols: Optional[LeafColumns] = None):
        """A leaf over ``cols``, or a directory when ``cols`` is None."""
        self.key = key
        self.lhv: Optional[int] = None
        self.block: Optional[np.ndarray] = None
        self.slots: Optional[np.ndarray] = None
        self.cols = cols
        if cols is not None:
            self.children = None
            self._agg = None
        else:
            self.children: Optional[list["Node"]] = []
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
        """A leaf's published size (0 in a directory)."""
        cols = self.cols
        return cols.size if cols is not None else 0

    # -- leaf item access -------------------------------------------------

    def leaf_coords(self) -> np.ndarray:
        """View of the live coordinate rows of a leaf."""
        return self.cols.live_coords()

    def leaf_measures(self) -> np.ndarray:
        return self.cols.live_measures()

    def leaf_hkeys(self) -> list[int]:
        """Live Hilbert keys as Python ints (tests / validation only)."""
        return self.cols.key_ints()

    def set_children(self, children: list["Node"]) -> None:
        """Make ``children`` this directory's: their keys are stacked
        into one block and each child's key rebound to view its row;
        leaf children's slots are kept beside it."""
        self.block = type(children[0].key).stack([c.key for c in children], bind=True)
        self.slots = (
            np.array([c.cols.slot for c in children])
            if all(c.cols is not None for c in children)
            else None
        )
        self.children = children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"dir[{len(self.children)}]"
        return f"Node({kind}, n={self.agg.count})"
