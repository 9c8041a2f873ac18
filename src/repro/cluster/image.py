"""The system image index: a modified PDC tree over shard bounding keys.

Paper Section III-C.  Each server's *local image* finds the shards
relevant to an insertion or query.  It is a PDC-tree-like structure
whose **leaves are fixed**: exactly one leaf per shard.  Insertions
never split leaves -- reaching a leaf expands its bounding key and
returns that shard.  Descent and directory splits follow the PDC
tree's placement rules in :mod:`repro.core.placement`: the smallest
covering child, else the least-overlap one, and median splits.

Shard bounding keys are "either a Minimum Bounding Rectangle (MBR, one
box) or Minimum Describing Subset (MDS, multiple boxes)" (Section
III-A); the image supports both (``key_kind`` parameter): it holds the
kind's key class, as a tree does, and *adopts* whatever kind the
workers publish into its own.

Synchronisation needs two structural operations the query path never
uses: *adding a shard* (a new leaf, with directory splits), and
*bottom-up expansion* -- when Zookeeper reports a bounding key grew, the
leaf is located through a shard-id -> leaf pointer table (searching by
key would be ambiguous under overlap) and the expansion propagates
toward the root.  The paper notes this transiently violates the
containment invariant without affecting correctness; the same holds
here.

Both routing operations read **directory snapshots**: copies of the
child keys of one directory stacked into one block (and, for inserts,
the child log-volumes), tagged with the image's version.  ``search``
decides a directory's children in one ``intersects_many`` of the key
class; ``route_insert``, asked row by row, decides a stretch of a
client batch ahead in one ``covers_points_many`` per directory.  Every
change of a key or of the structure bumps the version, which kills
every snapshot (and what was decided ahead) at once.  Keys grow in two
places only: the synchronisation path above and
:meth:`LocalImage._route_alone`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..core import placement
from ..core.config import key_class
from ..olap.keys import Box
from .wire import BoundingKey, key_from_wire, key_to_wire

__all__ = ["ShardInfo", "owner_of", "LocalImage"]


@dataclass
class ShardInfo:
    """What the image knows about one shard."""

    shard_id: int
    key: BoundingKey
    worker_id: int
    size: int = 0
    #: residency tier at the owning worker: ``"hot"`` (columns in
    #: memory) or ``"warm"`` (spilled; only the blob + this bounding key
    #: remain).  Routing treats both identically -- a WARM shard is
    #: still searchable through its bounding key and rehydrates on
    #: first touch -- the field exists so operators and policies can
    #: see the tier.
    residency: str = "hot"

    @property
    def box(self) -> Box:
        """Single-box view of the bounding key (MBR of an MDS key)."""
        if isinstance(self.key, Box):
            return self.key
        return self.key.mbr()

    @property
    def primary_worker(self) -> int:
        """Alias making the replication semantics explicit: the image's
        ``worker_id`` always names the shard's *primary*; replicas are
        advertised separately (watermarks under ``/replicas/``) and
        never appear in the system image."""
        return self.worker_id

    def to_wire(self) -> tuple:
        """Serialisable snapshot for the Zookeeper system image."""
        return (
            self.shard_id,
            key_to_wire(self.key),
            self.worker_id,
            self.size,
            self.residency,
        )

    @staticmethod
    def from_wire(t: tuple) -> "ShardInfo":
        shard_id, key, worker_id, size, residency = t
        return ShardInfo(shard_id, key_from_wire(key), worker_id, size, residency)


def owner_of(zk, shard_id: int) -> Optional[int]:
    """The worker ``/shards/<shard_id>`` names as the shard's primary
    (``None`` when it is not published), without decoding the key."""
    wire = zk.get(f"/shards/{shard_id}")
    if wire is None:
        return None
    _shard_id, _key, worker_id, _size, _residency = wire
    return worker_id


class _ImageNode:
    __slots__ = (
        "key", "parent", "children", "shard", "version", "block", "volumes"
    )

    def __init__(
        self,
        key: BoundingKey,
        parent: Optional["_ImageNode"] = None,
        shard: Optional[ShardInfo] = None,
    ):
        self.key = key
        self.parent = parent
        self.children: Optional[list["_ImageNode"]] = None if shard else []
        self.shard = shard
        #: a directory's snapshot: image version, key block, volumes
        self.version = -1
        self.block = None
        self.volumes: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.shard is not None


class LocalImage:
    """A server's in-memory index over the global shard set."""

    def __init__(
        self,
        num_dims: int,
        fanout: int = 8,
        key_kind: str = "mbr",
    ):
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.num_dims = num_dims
        self.fanout = fanout
        self.key_class = key_class(key_kind)
        self.root = _ImageNode(self.key_class.empty(num_dims))
        #: a directory above the root, so that the root's own key is
        #: tested like every other: as its directory's (only) child
        self._top = _ImageNode(None)
        self._top.children = [self.root]
        #: bumped by every key or structure change; a snapshot built
        #: under another version is dead (changes are a few per 10 000
        #: routed rows, so nothing finer is kept)
        self._version = 0
        self._leaves: dict[int, _ImageNode] = {}
        #: shards whose keys grew locally since the last Zookeeper sync
        self.dirty: set[int] = set()
        self.nodes_visited_last = 0
        #: decided ahead: batch, image version, first row, leaves, hops
        self._ahead: tuple = (None, -1, 0, [], [])
        self._look = 0  # rows to try ahead next; 0 = descend alone

    # -- membership ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._leaves)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._leaves

    def shards(self) -> Iterator[ShardInfo]:
        for leaf in self._leaves.values():
            yield leaf.shard

    def get(self, shard_id: int) -> ShardInfo:
        return self._leaves[shard_id].shard

    # -- structural ops (synchronisation path) ------------------------------

    def add_shard(self, info: ShardInfo) -> None:
        """Insert a new leaf for ``info`` (R-tree-style, splits allowed)."""
        if info.shard_id in self._leaves:
            raise ValueError(f"shard {info.shard_id} already present")
        # Adopt the published key into this image's native kind; the
        # leaf's key *is* the shard's key thereafter, so path expansions
        # are visible through both.
        self._version += 1
        info.key = self.key_class.adopt(info.key)
        leaf = _ImageNode(info.key, shard=info)
        self._leaves[info.shard_id] = leaf
        node = self.root
        while True:
            node.key.expand_inplace(info.key)
            if not node.children or node.children[0].is_leaf:
                break
            node = node.children[self._least_overlap(node, info.key)]
        leaf.parent = node
        node.children.append(leaf)
        self._split_up(node)

    def remove_shard(self, shard_id: int) -> None:
        """Drop a shard's leaf (after a split replaced it, or migration)."""
        self._version += 1
        leaf = self._leaves.pop(shard_id)
        parent = leaf.parent
        parent.children.remove(leaf)
        # prune empty directory chains (keys are left loose; harmless)
        while parent is not self.root and not parent.children:
            gp = parent.parent
            gp.children.remove(parent)
            parent = gp
        self.dirty.discard(shard_id)

    def update_worker(self, shard_id: int, worker_id: int) -> None:
        self._leaves[shard_id].shard.worker_id = worker_id

    def update_size(self, shard_id: int, size: int) -> None:
        self._leaves[shard_id].shard.size = size

    def update_residency(self, shard_id: int, residency: str) -> None:
        self._leaves[shard_id].shard.residency = residency

    def expand_shard(self, shard_id: int, key: BoundingKey) -> bool:
        """Bottom-up expansion from the leaf pointer table (sync path)."""
        leaf = self._leaves[shard_id]
        grown = self.key_class.adopt(key)
        if not leaf.key.expand_inplace(grown):
            return False
        self._version += 1
        node = leaf.parent
        while node is not None:
            if not node.key.expand_inplace(grown):
                break
            node = node.parent
        return True

    # -- operation routing ----------------------------------------------------

    def route_insert(self, coords: np.ndarray, row: int = 0) -> ShardInfo:
        """Choose the shard of ``coords[row]``, a row of an ``(n, d)``
        batch routed in row order; expand the keys on its path and mark
        the shard dirty when its key grew (pushed at the next sync).

        A row every key on its path covers changes no key, so a stretch
        of them is decided ahead, one broadcast per directory
        (:meth:`_route_covered`), and their calls only take the leaf.
        The row that ends a stretch descends alone (:meth:`_route_alone`).
        The stretch tried next is twice the covered one found last;
        after none, rows descend alone until one grows nothing.  What
        is decided ahead is a memo of this (unchanged) ``coords`` object
        under this image version, so any call order routes as one-row
        calls do.  One call per row: client batches are cut by a
        wall-clock linger, and a traced run counts these calls.
        """
        if not self._leaves:
            raise RuntimeError("image has no shards")
        batch, version, start, leaves, hops = self._ahead
        i = row - start
        known = batch is coords and version == self._version
        if batch is not coords:
            self._look = len(coords) - row
        if not (known and 0 <= i < len(leaves)):
            if not self._look:
                return self._route_alone(coords[row])
            window = np.asarray(coords[row : row + self._look], dtype=np.int64)
            leaves, hops = self._route_covered(window)
            self._ahead = (coords, self._version, row, leaves, hops)
            self._look = 2 * len(hops)
            i = 0
        leaf = leaves[i]
        if leaf is None:  # the row that ended the stretch
            return self._route_alone(coords[row])
        leaf.shard.size += 1
        self.nodes_visited_last = hops[i]
        return leaf.shard

    def search(self, box: Box) -> list[ShardInfo]:
        """All shards whose bounding key intersects ``box`` (one
        ``intersects_many`` over each directory's snapshot)."""
        out: list[ShardInfo] = []
        visited = 0
        stack = [self.root]
        live = not box.is_empty()  # an empty box meets no key
        while stack:
            node = stack.pop()
            visited += 1
            if node.is_leaf:
                out.append(node.shard)
            elif live and node.children:
                hit = self.key_class.intersects_many(
                    self._block(node), box.lo, box.hi
                )
                stack.extend(
                    node.children[i] for i in np.flatnonzero(hit).tolist()
                )
        self.nodes_visited_last = visited
        return out

    # -- internals ---------------------------------------------------------

    def _block(self, node: _ImageNode) -> np.ndarray:
        """A directory's child keys stacked into one block (copies),
        retaken if the image changed."""
        if node.version != self._version:
            node.version = self._version
            node.block = self.key_class.stack([c.key for c in node.children])
            node.volumes = None
        return node.block

    def _route_covered(self, coords: np.ndarray) -> tuple[list, list[int]]:
        """The leaves of the longest run of leading rows that grow no
        key, then ``None`` for the row that ended it (if one did), and
        the nodes each row of the run visits.

        Per directory and row the chosen child is the smallest covering
        one (the first of equals), as in :meth:`_route_child`; a row
        whose choice does not cover it -- no child does, or the only
        child does not -- ends the run.  Nothing is changed here.
        """
        n = len(coords)
        leaf: list = [None] * n
        hops = [0] * n
        stop = n  # the first row known to grow a key
        work = [(self._top, np.arange(n), 1)]
        while work:
            node, rows, depth = work.pop()
            rows = rows[rows < stop]
            block = self._block(node)
            if node.volumes is None:  # only insert routing reads them
                node.volumes = np.array(
                    [c.key.log_volume() for c in node.children]
                )
            cover = self.key_class.covers_points_many(block, coords[rows])
            pick = np.where(cover, node.volumes, np.inf).argmin(axis=1)
            ok = cover[np.arange(len(rows)), pick]
            if not ok.all():
                bad = int(ok.argmin())
                stop = int(rows[bad])
                rows, pick = rows[:bad], pick[:bad]
            for i in np.unique(pick).tolist():
                child = node.children[i]
                sub = rows[pick == i]
                if child.is_leaf:
                    for r in sub.tolist():
                        leaf[r] = child
                        hops[r] = depth
                else:
                    work.append((child, sub, depth + 1))
        return leaf[: stop + 1], hops[:stop]

    def _route_alone(self, coords: np.ndarray) -> ShardInfo:
        """One row's descent, expanding every key on its path: the only
        place routing grows keys."""
        node, visited = self.root, 1
        grew = changed = node.key.expand_point_inplace(coords)
        while not node.is_leaf:
            idx = self._route_child(node, coords)
            node = node.children[idx]
            changed = node.key.expand_point_inplace(coords)
            grew = grew or changed
            visited += 1
        info = node.shard  # node.key is info.key: path expansion included it
        if changed:
            self.dirty.add(info.shard_id)
        if grew:
            self._version += 1
        elif not self._look:
            self._look = 2  # covered: try a stretch again
        info.size += 1
        self.nodes_visited_last = visited
        return info

    def _route_child(self, node: _ImageNode, coords: np.ndarray) -> int:
        if len(node.children) == 1:
            return 0
        keys = [c.key for c in node.children]
        covering = placement.smallest_covering(keys, coords)
        if covering is not None:
            return covering
        return self._least_overlap(node, self.key_class.from_point(coords))

    def _least_overlap(self, node: _ImageNode, key: BoundingKey) -> int:
        """The child of ``node`` least overlap places ``key`` in."""
        keys = [c.key for c in node.children]
        grown = [k.copy() for k in keys]
        for g in grown:
            g.expand_inplace(key)
        return placement.least_overlap(self.key_class, keys, grown, self.num_dims)

    def _split_up(self, node: _ImageNode) -> None:
        """Split directory nodes upward while over fanout."""
        while node is not None and len(node.children) > self.fanout:
            groups = [
                [node.children[i] for i in half]
                for half in placement.halves(
                    [c.key.mbr().center() for c in node.children]
                )
            ]
            if node.parent is None:
                # root split: root becomes a directory of two new nodes
                new_kids = []
                for grp in groups:
                    sub = _ImageNode(self.key_class.empty(self.num_dims), parent=node)
                    sub.children = grp
                    for g in grp:
                        g.parent = sub
                        sub.key.expand_inplace(g.key)
                    new_kids.append(sub)
                node.children = new_kids
                return
            sibling = _ImageNode(
                self.key_class.empty(self.num_dims), parent=node.parent
            )
            sibling.children = groups[1]
            for g in groups[1]:
                g.parent = sibling
                sibling.key.expand_inplace(g.key)
            node.children = groups[0]
            node.key = self.key_class.empty(self.num_dims)
            for g in groups[0]:
                g.parent = node
                node.key.expand_inplace(g.key)
            node.parent.children.append(sibling)
            node = node.parent

    def validate(self) -> None:
        """Test hook: parent/child links and leaf table consistency."""
        seen: set[int] = set()

        def rec(node: _ImageNode) -> None:
            if node.is_leaf:
                assert self._leaves.get(node.shard.shard_id) is node
                seen.add(node.shard.shard_id)
                return
            for c in node.children:
                assert c.parent is node, "broken parent pointer"
                rec(c)

        rec(self.root)
        assert seen == set(self._leaves), "leaf table out of sync"
