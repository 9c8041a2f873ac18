"""Shared machinery for all shard data structures.

Defines the :class:`ShardStore` interface every shard implementation
satisfies (insert, query, and the load-balancing operations of paper
Section III-E: ``SplitQuery``, ``Split``, ``SerializeShard``), plus
:class:`BaseTree`, the common query/validation/serialisation code for
the four tree variants, with the tree lock (:class:`TreeLock`) and the
directory builder their inserts share.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Iterator, Optional

import numpy as np

from ..olap.colframe import decode_batch, encode_batch
from ..olap.keys import Box, union_all
from ..olap.records import RecordBatch
from ..olap.schema import Schema
from .aggregates import Aggregate
from .columns import LeafArena
from .config import OpStats, TreeConfig, key_class
from .node import Node

__all__ = ["ShardStore", "BaseTree", "Hyperplane", "TreeLock"]


class TreeLock:
    """A re-entrant lock granted in arrival order: a ticket lock.

    A thread that releases an ``RLock`` and asks for it again can take
    it ahead of one already waiting, so two readers in a loop can starve
    a writer for good.  Here each first entry takes a ticket and waits
    until the holder before it leaves; a thread that holds the lock
    enters again at once (a write from inside a read's hook)."""

    __slots__ = ("_mutex", "_turn", "_next", "_serving", "_owner", "_depth")

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._turn = threading.Condition(self._mutex)
        self._next = 0  # the next ticket handed out
        self._serving = 0  # the ticket that holds the lock
        self._owner: Optional[int] = None
        self._depth = 0

    def __enter__(self) -> None:
        me = threading.get_ident()
        if self._owner != me:  # only the holder ever finds itself here
            with self._mutex:
                ticket = self._next
                self._next += 1
                while ticket != self._serving:
                    self._turn.wait()
                self._owner = me
        self._depth += 1

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if not self._depth:
            with self._mutex:
                self._owner = None
                self._serving += 1
                if self._serving != self._next:  # a ticket waits
                    self._turn.notify_all()


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
    """Common structure and query path of the four tree variants.

    Every public call -- ``insert``, ``insert_batch``, ``query``,
    ``query_batch``, ``items`` and ``depth`` (``split``, ``split_query``
    and ``serialize`` read through ``items``) -- holds the tree's one
    :attr:`lock` from start to end, so no call sees another half done.
    The paper's k threads per node are modelled in virtual time by the
    worker's service pool, not run here.
    """

    def __init__(self, schema: Schema, config: Optional[TreeConfig] = None):
        self.schema = schema
        self.config = config if config is not None else self._default_config()
        self.key_class = key_class(self.config.key_kind)
        self.num_dims = schema.num_dims
        self.arena = LeafArena(
            self.config.leaf_capacity + 1, self.num_dims, self._leaf_key_words()
        )
        self.root = self._new_leaf()
        self._count = 0
        self.lock = TreeLock()

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

    def _new_leaf(self) -> Node:
        return Node(self.key_class.empty(self.num_dims), slot=self.arena.leaf())

    def _new_dir(self) -> Node:
        return Node(self.key_class.empty(self.num_dims))

    def _build_dir(self, children: list[Node]) -> Node:
        """A directory over ``children``: their key union, merged
        aggregate, and -- when the children carry one -- largest LHV."""
        out = self._new_dir()
        out.set_children(children)
        out.key = union_all([c.key for c in children])
        agg = Aggregate.empty()
        for c in children:
            agg.merge(c.agg)
        out.agg = agg
        if children[0].lhv is not None:
            out.lhv = max(c.lhv for c in children)
        return out

    def _rows(self, coords) -> np.ndarray:
        """``coords`` (a row or an ``(n, d)`` array) as int64, checked to
        lie in the schema's id space -- ``ValueError`` otherwise.  Every
        entry point that stores rows calls it once: the read engine
        tests only the dimensions a query constrains."""
        coords = np.asarray(coords, dtype=np.int64)
        self.schema.validate_coords(coords)
        return coords

    def __len__(self) -> int:
        return self._count

    def mbr(self) -> Box:
        if self._count == 0:
            return Box.empty(self.num_dims)
        return self.root.key.mbr()

    def bounding_key(self):
        if self._count == 0:
            return self.key_class.empty(self.num_dims)
        return self.root.key.copy()

    # -- query -----------------------------------------------------------

    def query(self, box: Box) -> tuple[Aggregate, OpStats]:
        with self.lock:
            return self._scan(box)

    def query_batch(
        self, boxes: list[Box]
    ) -> list[tuple[Aggregate, OpStats]]:
        with self.lock:
            return [self._scan(box) for box in boxes]

    def _scan(self, box: Box) -> tuple[Aggregate, OpStats]:
        """The read engine: one classify per tree level, one leaf scan.

        Only the root's key is tested in Python.  Below it the walk is
        level-synchronous: the *frontier* is the directories queued in
        one step, whose key blocks (:attr:`~repro.core.node.Node.block`)
        are stacked -- a lone directory's used as it is -- and decided
        by one ``classify`` of the key class.  Children *within* the box
        contribute their cached aggregate; the other *hit* children are
        collected if leaves and make the next frontier if directories.
        A directory whose children are all leaves keeps their arena
        slots beside its block (:attr:`~repro.core.node.Node.slots`),
        so its hit leaves are collected as slots in one take.  The
        collected leaves are then read in one pass over the tree's
        column arena (:meth:`~repro.core.columns.LeafArena.select`):
        one take of the constrained dimensions of their slots, one mask
        of the rows inside the box and below each leaf's published
        size, one take of the measures and one ``Aggregate.of_array``.
        ``OpStats`` count what a node-by-node pointer walk would
        (``tests/conftest.py::reference_query``).

        The root's step tests every dimension: most point queries end
        there, and on one block finding the constrained dimensions
        costs more than it saves.  The later steps and the leaf mask
        test only the dimensions the box constrains
        (:meth:`_constrained`): every stored row lies in the schema's id
        space (:meth:`_rows`), so an unconstrained dimension decides
        nothing.  A box that constrains none is tested on all of them:
        a zero-dimension test would call an empty key a hit.
        """
        stats = OpStats()
        agg = Aggregate.empty()
        if not self._count:
            return agg, stats
        cache = self.config.cache_aggregates
        root = self.root
        stats.nodes_visited = 1
        if cache and root.key.within_box(box):
            agg.merge(root.agg)
            stats.agg_hits = 1
            return agg, stats
        taken: list[np.ndarray] = []  # slots of leaves hit under bottom directories
        loose: list[int] = []  # slots of other collected leaves
        frontier: list[Node] = []
        if root.is_leaf:
            loose.append(root.slot)
        elif not box.is_empty():
            frontier.append(root)
        qlo, qhi, dims, narrowed = box.lo, box.hi, None, False
        while frontier:
            kids: list[Node] = []
            blocks, slots = [], []
            bottom = True  # every classified child is a leaf
            for node in frontier:
                kids.extend(node.children)
                blocks.append(node.block)
                slots.append(node.slots)
                bottom = bottom and node.slots is not None
            block = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            if dims is not None:
                block = block[:, :, dims]
            hit, within = self.key_class.classify(block, qlo, qhi)
            hits = int(np.count_nonzero(hit))
            stats.nodes_visited += hits
            if hits and cache and within.any():
                for i in within.nonzero()[0].tolist():
                    agg.merge(kids[i].agg)
                    stats.agg_hits += 1
                hit = hit ^ within
            frontier = []
            if hits and bottom:
                taken.append((slots[0] if len(slots) == 1 else np.concatenate(slots))[hit])
            elif hits:
                for i in hit.nonzero()[0].tolist():
                    child = kids[i]
                    if child.is_leaf:
                        loose.append(child.slot)
                    else:
                        frontier.append(child)
            if frontier and not narrowed:
                qlo, qhi, dims = self._constrained(box)
                narrowed = True
        if loose:
            taken.append(np.array(loose))
        if not taken:
            return agg, stats
        leaves = taken[0] if len(taken) == 1 else np.concatenate(taken)
        if len(leaves):
            if not narrowed:
                qlo, qhi, dims = self._constrained(box)
            stats.leaves_visited = len(leaves)
            stats.items_scanned, measures = self.arena.select(leaves, dims, qlo, qhi)
            agg.merge(Aggregate.of_array(measures))
        return agg, stats

    def _constrained(self, box: Box) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(lo, hi, dims)``: the dimensions ``box`` constrains (a bound
        inside ``[0, leaf_limit]``) and its bounds on them; ``dims`` is
        None, and the bounds whole, when it constrains all or none."""
        dims = ((box.lo > 0) | (box.hi < self.schema.leaf_limits)).nonzero()[0]
        if 0 < len(dims) < self.num_dims:
            return box.lo[dims], box.hi[dims], dims
        return box.lo, box.hi, None

    # -- enumeration -------------------------------------------------------

    def items(self) -> RecordBatch:
        coords = []
        measures = []
        arena = self.arena
        with self.lock:
            for leaf in self._iter_leaves(self.root):
                # views: ``np.concatenate`` below makes the one copy
                coords.append(arena.coords(leaf.slot))
                measures.append(arena.measures(leaf.slot))
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
        with self.lock:
            d = 1
            node = self.root
            while not node.is_leaf:
                node = node.children[0]
                d += 1
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
        """Exact buffer bytes: the arena slots the leaves own plus the
        directory key blocks.  The arena's headroom -- slots free,
        awaiting reuse or never used -- is not counted: it is the
        allocator's, as the slack of a per-leaf buffer was."""
        total = self.arena.owned * self.arena.slot_bytes
        stack = [self.root]
        while stack:
            n = stack.pop()
            if not n.is_leaf:
                total += n.block.nbytes
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
        # the arena: one slot per leaf
        arena = self.arena
        leaves = [node.slot for node in order if node.is_leaf]
        slots = set(leaves)
        assert len(slots) == len(leaves), "two leaves share an arena slot"
        assert len(slots) == arena.owned, "an owned arena slot has no leaf"
        assert not slots & set(arena.free), "a leaf's arena slot is free"

    def _validate_one(
        self,
        node: Node,
        results: dict[int, tuple[int, list[np.ndarray]]],
        is_root: bool = False,
    ) -> tuple[int, list[np.ndarray]]:
        if node.is_leaf:
            arena, slot = self.arena, node.slot
            size = arena.size(slot)
            assert size <= self.config.leaf_capacity, "leaf over capacity"
            agg = Aggregate.of_array(arena.measures(slot))
            assert node.agg.approx_equal(agg), "leaf aggregate mismatch"
            coords = arena.coords(slot)
            assert ((coords >= 0) & (coords <= self.schema.leaf_limits)).all(), (
                "row outside the schema's id space"
            )
            for row in coords:
                assert node.key.covers_point(row), (
                    "leaf key does not cover item"
                )
            if arena.key_words and size:
                assert node.lhv == arena.max_key(slot), "leaf LHV wrong"
            return size, [coords]
        assert len(node.children) <= self.config.fanout, "dir over fanout"
        if not is_root:
            assert len(node.children) >= 1, "empty directory node"
        # one copy of each child key: child i's key is row i of the block
        assert len(node.block) == len(node.children), "block rows != children"
        leaf_slots = [c.slot for c in node.children if c.is_leaf]
        if len(leaf_slots) == len(node.children):
            assert node.slots.tolist() == leaf_slots, "directory slots != leaf slots"
        else:
            assert node.slots is None, "slots kept beside directory children"
        for row, child in zip(node.block, node.children):
            key = child.key
            views = (key.lo, key.hi) if self.key_class is Box else (key._iv,)
            assert all(np.shares_memory(v, row) for v in views), (
                "child key is not a view of its block row"
            )
            assert np.array_equal(type(key).stack([key])[0], row)
        total = 0
        subtree_rows: list[np.ndarray] = []
        agg = Aggregate.empty()
        for child in node.children:
            n, parts = results.pop(id(child))
            total += n
            subtree_rows.extend(parts)
            agg.merge(child.agg)
            if self.key_class is Box:
                assert node.key.covers(child.key), (
                    "parent MBR does not cover child MBR"
                )
        assert node.agg.approx_equal(agg), "directory aggregate mismatch"
        for part in subtree_rows:
            for row in part:
                assert node.key.covers_point(row), (
                    "node key does not cover subtree item"
                )
        if node.children and node.children[0].lhv is not None:
            lhvs = [c.lhv for c in node.children]
            assert lhvs == sorted(lhvs), "children not in LHV order"
            assert node.lhv == max(lhvs), "directory LHV wrong"
        return total, subtree_rows
