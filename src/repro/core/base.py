"""Shared machinery for all shard data structures.

Defines the :class:`ShardStore` interface every shard implementation
satisfies (insert, query, and the load-balancing operations of paper
Section III-E: ``SplitQuery``, ``Split``, ``SerializeShard``), plus
:class:`BaseTree`, the common query/validation/serialisation code for
the four tree variants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Optional

import numpy as np

from ..olap.colframe import decode_batch, encode_batch
from ..olap.keys import Box
from ..olap.records import RecordBatch
from ..olap.schema import Schema
from .aggregates import Aggregate
from .config import OpStats, TreeConfig
from .keypolicy import make_policy
from .node import Node

__all__ = ["ShardStore", "BaseTree", "Hyperplane"]


class Hyperplane:
    """An axis-aligned splitting plane: ``dim``, threshold ``value``.

    Items with ``coords[dim] <= value`` fall on the low side.  Returned
    by ``SplitQuery`` and consumed by ``Split`` (paper Section III-E).
    """

    __slots__ = ("dim", "value")

    def __init__(self, dim: int, value: int):
        self.dim = int(dim)
        self.value = int(value)

    def side_mask(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of items on the low side."""
        return coords[:, self.dim] <= self.value

    def to_tuple(self) -> tuple[int, int]:
        return (self.dim, self.value)

    @staticmethod
    def from_tuple(t: tuple[int, int]) -> "Hyperplane":
        return Hyperplane(t[0], t[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hyperplane(dim={self.dim}, value={self.value})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hyperplane)
            and self.dim == other.dim
            and self.value == other.value
        )


class ShardStore(ABC):
    """Interface satisfied by every shard data structure."""

    schema: Schema
    config: TreeConfig

    @abstractmethod
    def insert(self, coords: np.ndarray, measure: float) -> OpStats:
        """Insert one item; returns the work counters for the operation."""

    def key_words(self, coords: np.ndarray) -> Optional[np.ndarray]:
        """The rows' packed Hilbert key words :meth:`insert_batch` takes
        (None: this store keeps no Hilbert keys)."""
        return None

    def insert_batch(
        self, batch: RecordBatch, words: Optional[np.ndarray] = None
    ) -> OpStats:
        """Insert a whole batch; returns the merged work counters.

        ``words`` are the rows' :meth:`key_words` when the caller has
        them.  The default is a per-record loop; stores with a cheaper
        bulk path (one-descent tree inserts, array appends) override it.
        """
        stats = OpStats()
        for coords, measure in batch.iter_rows():
            stats.merge(self.insert(coords, measure))
        return stats

    @abstractmethod
    def query(self, box: Box) -> tuple[Aggregate, OpStats]:
        """Aggregate every item inside ``box``."""

    def query_batch(
        self, boxes: list[Box]
    ) -> list[tuple[Aggregate, OpStats]]:
        """Answer many boxes at once; one (Aggregate, OpStats) per box.

        Results must be identical to a loop of :meth:`query`, which is
        what the default is.
        """
        return [self.query(box) for box in boxes]

    @abstractmethod
    def items(self) -> RecordBatch:
        """All stored items (order unspecified)."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def mbr(self) -> Box:
        """Bounding box of the stored data (empty box when empty)."""

    def bounding_key(self):
        """Bounding key of the stored data: the store's native key kind
        (MDS for MDS-keyed trees, a Box otherwise).  Paper Section
        III-A: a shard's bounding box is "either a Minimum Bounding
        Rectangle (MBR, one box) or Minimum Describing Subset (MDS,
        multiple boxes)"."""
        return self.mbr()

    # -- load balancing support (paper Section III-E) -----------------------

    def split_query(self) -> Hyperplane:
        """Find a hyperplane partitioning the data into ~equal halves."""
        batch = self.items()
        if len(batch) < 2:
            raise ValueError("cannot split a shard with fewer than 2 items")
        box = self.mbr()
        extents = box.side_lengths()
        # Prefer the dimension with the widest extent; fall back to any
        # dimension where a proper two-sided split exists.
        for dim in np.argsort(-extents):
            col = batch.coords[:, dim]
            value = int(np.median(col))
            low = int((col <= value).sum())
            if 0 < low < len(batch):
                return Hyperplane(int(dim), value)
            # median may sit at the max; try just below it
            value = int(np.partition(col, len(col) // 2)[len(col) // 2]) - 1
            low = int((col <= value).sum())
            if 0 < low < len(batch):
                return Hyperplane(int(dim), value)
        raise ValueError("shard data is a single point; cannot split")

    def split(self, plane: Hyperplane) -> tuple["ShardStore", "ShardStore"]:
        """Partition into two stores separated by ``plane``."""
        batch = self.items()
        mask = plane.side_mask(batch.coords)
        low = batch.take(np.where(mask)[0])
        high = batch.take(np.where(~mask)[0])
        return (
            type(self).from_batch(self.schema, low, self.config),
            type(self).from_batch(self.schema, high, self.config),
        )

    def serialize(self) -> bytes:
        """Column-frame blob of the shard contents (paper SerializeShard).

        Arrow-IPC-style raw column buffers (see
        :mod:`repro.olap.colframe`); checkpoint, migrate, restore and
        replica seeding all ship this frame, never pickled objects.
        """
        return encode_batch(self.items())

    @classmethod
    def deserialize(
        cls, schema: Schema, blob: bytes, config: TreeConfig
    ) -> "ShardStore":
        """Rebuild a store from a serialized shard (v2 frame or legacy v1)."""
        return cls.from_batch(schema, decode_batch(blob), config)

    def resident_bytes(self) -> int:
        """Bytes of record storage held in memory (benchmark metric).

        The default estimates from a materialized copy of the items;
        stores that own their buffers override with exact accounting.
        """
        batch = self.items()
        return batch.coords.nbytes + batch.measures.nbytes

    @classmethod
    @abstractmethod
    def from_batch(
        cls, schema: Schema, batch: RecordBatch, config: TreeConfig
    ) -> "ShardStore":
        """Build a store from a record batch (bulk load)."""


class BaseTree(ShardStore):
    """Common structure and query path of the four tree variants."""

    def __init__(self, schema: Schema, config: Optional[TreeConfig] = None):
        self.schema = schema
        self.config = config if config is not None else self._default_config()
        self.policy = make_policy(self.config.key_kind)
        self.num_dims = schema.num_dims
        self.root = self._new_leaf()
        self._count = 0

    # subclasses override to pick their canonical defaults
    @staticmethod
    def _default_config() -> TreeConfig:
        return TreeConfig()

    @property
    def uses_hilbert(self) -> bool:
        return False

    def _leaf_key_words(self) -> int:
        """uint64 words per packed leaf Hilbert key (0: no Hilbert keys)."""
        return 0

    def _new_leaf(self, key=None) -> Node:
        return Node(
            self.policy.empty(self.num_dims) if key is None else key,
            leaf=True,
            capacity=self.config.leaf_capacity + 1,
            num_dims=self.num_dims,
            key_words=self._leaf_key_words(),
            thread_safe=self.config.thread_safe,
        )

    def _new_dir(self) -> Node:
        return Node(
            self.policy.empty(self.num_dims),
            leaf=False,
            thread_safe=self.config.thread_safe,
        )

    def __len__(self) -> int:
        return self._count

    def mbr(self) -> Box:
        if self._count == 0:
            return Box.empty(self.num_dims)
        return self.root.key.mbr()

    def bounding_key(self):
        if self._count == 0:
            return self.policy.empty(self.num_dims)
        return self.root.key.copy()

    # -- query -----------------------------------------------------------

    def query(self, box: Box) -> tuple[Aggregate, OpStats]:
        return self._scan(box)

    def query_batch(
        self, boxes: list[Box]
    ) -> list[tuple[Aggregate, OpStats]]:
        return [self._scan(box) for box in boxes]

    def _scan(self, box: Box) -> tuple[Aggregate, OpStats]:
        """The read engine: decide directories as arrays, scan leaves once.

        Only the root's key is tested in Python.  Below it the walk
        visits directories only: one ``policy.classify`` over the
        directory's :meth:`~repro.core.node.Node.packed_children`
        snapshot decides all its children at once -- those *within* the
        box contribute their cached aggregate, the other *hit* children
        are queued if directories and collected if leaves -- and the
        collected leaves are then scanned in one pass: one gather of
        their live columns, one containment mask, one
        ``Aggregate.of_array``.  ``OpStats`` count what a node-by-node
        pointer walk would (``tests/conftest.py::reference_query``).

        A reader holds one node lock at a time: a directory's while its
        snapshot is read, a child's while its aggregate is read, a
        leaf's while its size is read (rows below a published size
        never change, so the views outlive the lock).  *Within* was
        decided from the snapshot, so under the child's lock it stands
        only if ``key_version`` is still the one the snapshot recorded;
        a key that grew since is re-tested, or an insert racing the
        query could put a row outside the box into the answer.
        """
        stats = OpStats()
        agg = Aggregate.empty()
        if not self._count:
            return agg, stats
        policy = self.policy
        cache = self.config.cache_aggregates
        root = self.root
        stats.nodes_visited = 1
        root.acquire()
        try:
            if cache and root.key.within_box(box):
                agg.merge(root.agg)
                stats.agg_hits = 1
                return agg, stats
        finally:
            root.release()
        # explicit stack: deep split chains must not hit the recursion limit
        dirs: list[Node] = []
        leaves: list[Node] = []
        if root.is_leaf:
            leaves.append(root)
        elif not box.is_empty():
            dirs.append(root)
        qlo, qhi = box.lo, box.hi
        while dirs:
            node = dirs.pop()
            node.acquire()
            try:
                children, versions, packed = node.packed_children(
                    policy, self.num_dims
                )
            finally:
                node.release()
            hit, within = policy.classify(packed, qlo, qhi)
            hits = hit.nonzero()[0].tolist()
            stats.nodes_visited += len(hits)
            inside = within.tolist() if cache else None
            for i in hits:
                child = children[i]
                if cache and inside[i]:
                    child.acquire()
                    try:
                        if child.key_version == versions[i] or (
                            child.key.within_box(box)
                        ):
                            agg.merge(child.agg)
                            stats.agg_hits += 1
                            continue
                    finally:
                        child.release()
                (leaves if child.is_leaf else dirs).append(child)
        if leaves:
            coords_parts, measure_parts = [], []
            rows = 0
            for leaf in leaves:
                cols = leaf.cols
                leaf.acquire()
                n = cols.size
                leaf.release()
                rows += n
                coords_parts.append(cols.coords[:n])
                measure_parts.append(cols.measures[:n])
            stats.leaves_visited = len(leaves)
            stats.items_scanned = rows
            # gathered dimension-major: the mask then reduces over whole
            # columns instead of over d-long rows
            coords = np.empty((self.num_dims, rows), dtype=np.int64)
            np.concatenate(coords_parts, out=coords.T)
            mask = (
                (qlo[:, None] <= coords) & (coords <= qhi[:, None])
            ).all(axis=0)
            agg.merge(Aggregate.of_array(np.concatenate(measure_parts)[mask]))
        return agg, stats

    # -- enumeration -------------------------------------------------------

    def items(self) -> RecordBatch:
        coords = []
        measures = []
        for leaf in self._iter_leaves(self.root):
            # views: ``np.concatenate`` below makes the one copy
            coords.append(leaf.leaf_coords())
            measures.append(leaf.leaf_measures())
        if not coords:
            return RecordBatch.empty(self.num_dims)
        return RecordBatch(
            np.concatenate(coords, axis=0), np.concatenate(measures)
        )

    def _iter_leaves(self, node: Node) -> Iterator[Node]:
        # iterative left-to-right walk (recursion-limit safe)
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                yield n
            else:
                stack.extend(reversed(n.children))

    # -- statistics ---------------------------------------------------------

    def depth(self) -> int:
        # hand-over-hand locking: under thread_safe=True a concurrent
        # split may swap children[0] mid-walk, so each hop is read
        # under the parent's lock before the lock moves down
        d = 1
        node = self.root
        node.acquire()
        while not node.is_leaf:
            child = node.children[0]
            child.acquire()
            node.release()
            node = child
            d += 1
        node.release()
        return d

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            n = stack.pop()
            count += 1
            if not n.is_leaf:
                stack.extend(n.children)
        return count

    def resident_bytes(self) -> int:
        """Exact buffer bytes: leaf columns plus the packed-key snapshot
        of every directory a query has expanded (``Node.packed``)."""
        total = 0
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                total += n.cols.nbytes
            else:
                if n.packed is not None:
                    total += n.packed[2].nbytes
                stack.extend(n.children)
        return total

    # -- invariants (used by tests) ---------------------------------------

    def validate(self) -> None:
        """Assert structural invariants; raises AssertionError on violation.

        The load-bearing key invariant is that every node's key covers
        every *item* in its subtree (this is what query pruning relies
        on).  With MBR keys the stronger "parent key covers child key"
        also holds and is checked; with MDS keys it need not hold,
        because each node coalesces its interval set independently.
        """
        # iterative: collect nodes in preorder (parents first), then
        # process in reverse so every child's (total, parts) is ready
        # before its parent -- deep degenerate trees must not hit the
        # recursion limit
        order: list[Node] = []
        stack: list[Node] = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            if not node.is_leaf:
                stack.extend(node.children)
        results: dict[int, tuple[int, list[np.ndarray]]] = {}
        for node in reversed(order):
            results[id(node)] = self._validate_one(
                node, results, is_root=node is self.root
            )
        total, _ = results[id(self.root)]
        assert total == self._count, f"count mismatch {total} != {self._count}"

    def _validate_one(
        self,
        node: Node,
        results: dict[int, tuple[int, list[np.ndarray]]],
        is_root: bool = False,
    ) -> tuple[int, list[np.ndarray]]:
        if node.is_leaf:
            assert node.size <= self.config.leaf_capacity, "leaf over capacity"
            agg = Aggregate.of_array(node.leaf_measures())
            assert node.agg.approx_equal(agg), "leaf aggregate mismatch"
            for row in node.leaf_coords():
                assert node.key.covers_point(row), (
                    "leaf key does not cover item"
                )
            if node.cols.hwords is not None and node.size:
                assert node.lhv == node.cols.max_key(), "leaf LHV wrong"
            return node.size, [node.leaf_coords()]
        assert len(node.children) <= self.config.fanout, "dir over fanout"
        if not is_root:
            assert len(node.children) >= 1, "empty directory node"
        total = 0
        coords_parts: list[np.ndarray] = []
        agg = Aggregate.empty()
        for child in node.children:
            n, parts = results.pop(id(child))
            total += n
            coords_parts.extend(parts)
            agg.merge(child.agg)
            if self.policy.kind == "mbr":
                assert node.key.covers(child.key), (
                    "parent MBR does not cover child MBR"
                )
        assert node.agg.approx_equal(agg), "directory aggregate mismatch"
        for part in coords_parts:
            for row in part:
                assert node.key.covers_point(row), (
                    "node key does not cover subtree item"
                )
        if node.children and node.children[0].lhv is not None:
            lhvs = [c.lhv for c in node.children]
            assert lhvs == sorted(lhvs), "children not in LHV order"
            assert node.lhv == max(lhvs), "directory LHV wrong"
        return total, coords_parts
