"""RollupStore: the resident set of materialized rollup cubes.

One store lives on each server (inside its
:class:`~repro.cluster.router.QueryRouter`).  A *cube* is identified by
a :class:`~repro.olap.rollup.CubeKey` and holds one dense
:class:`~repro.olap.rollup.CubeCells` slab per shard, so a cube answer
is a per-axis slice of each shard's slab merged across shards -- which
is also what lets single shards drop out (migrate, promote, resync)
without invalidating the rest of the cube.

The store is deliberately protocol-free: stream frontiers, epochs, and
sync scheduling live in the router.  What it owns is the *policy* --
which cubes exist:

* **demand**: every routable miss bumps an exponentially-decayed demand
  counter for the candidate key; crossing ``admit_after`` proposes the
  cube for materialization;
* **admission**: a candidate is admitted only if its cells fit
  ``max_cells`` and its estimated bytes fit the ``budget_bytes``
  envelope, evicting lower-scoring resident cubes to make room;
* **eviction**: score is hit-rate x cost saved per byte -- an
  exponentially-decayed hit counter times the cube's cell count (a
  proxy for the tree descent it replaces), divided by resident bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.aggregates import Aggregate
from .keys import Box
from .rollup import CubeCells, CubeKey, cube_ranges, cube_shape
from .schema import Schema

__all__ = ["Cube", "RollupStore"]

#: bytes per cube cell: four float64/int64 arrays (count, sum, min, max)
CELL_BYTES = 32
#: demand/hit decay rate (per virtual second, a halving exponent)
DECAY = 0.1


@dataclass
class Cube:
    """One resident cube: per-shard slabs plus scoring state."""

    key: CubeKey
    shape: tuple[int, ...]
    num_cells: int
    #: shard id -> dense slab; a shard with no slab yet (sync in
    #: flight) simply cannot be cube-served and falls back to the tree
    slabs: dict[int, CubeCells] = field(default_factory=dict)
    #: exponentially-decayed hit count (the admission/eviction signal)
    hits: float = 0.0
    last_touch: float = 0.0
    created: float = 0.0

    def resident_bytes(self) -> int:
        return sum(c.resident_bytes() for c in self.slabs.values())


class RollupStore:
    """Resident cubes plus the admission/eviction policy over them."""

    def __init__(
        self,
        schema: Schema,
        budget_bytes: int = 32 << 20,
        max_cells: int = 1 << 16,
        admit_after: int = 2,
    ):
        self.schema = schema
        self.budget_bytes = int(budget_bytes)
        self.max_cells = int(max_cells)
        self.admit_after = int(admit_after)
        self.cubes: dict[CubeKey, Cube] = {}
        self._demand: dict[CubeKey, tuple[float, float]] = {}  # ewma, t
        self.evictions = 0
        self.admissions = 0

    # -- introspection ------------------------------------------------------

    def resident_bytes(self) -> int:
        return sum(c.resident_bytes() for c in self.cubes.values())

    def __contains__(self, key: CubeKey) -> bool:
        return key in self.cubes

    def __len__(self) -> int:
        return len(self.cubes)

    # -- matching / answering ----------------------------------------------

    def match(
        self, box: Box
    ) -> Optional[tuple[Cube, list[tuple[int, int]]]]:
        """The cheapest resident cube able to answer ``box`` exactly
        (fewest selected cells), with its per-axis cell ranges."""
        best = None
        best_cost = None
        for cube in self.cubes.values():
            ranges = cube_ranges(self.schema, cube.key, box)
            if ranges is None:
                continue
            cost = 1
            for lo, hi in ranges:
                cost *= hi - lo + 1
            if best_cost is None or cost < best_cost:
                best, best_cost = (cube, ranges), cost
        return best

    def cube_answer(
        self,
        cube: Cube,
        ranges: list[tuple[int, int]],
        shard_ids: Iterable[int],
    ) -> tuple[Aggregate, list[int]]:
        """Merge the sliced per-shard slabs over ``shard_ids``; shards
        with no slab installed come back in the missing list (the
        router sends those down the tree path)."""
        agg = Aggregate.empty()
        missing: list[int] = []
        for sid in shard_ids:
            slab = cube.slabs.get(sid)
            if slab is None:
                missing.append(sid)
                continue
            agg.merge(slab.select(cube.shape, ranges))
        return agg, missing

    def touch(self, key: CubeKey, now: float) -> None:
        """Record a cube hit (decayed, for the eviction score)."""
        cube = self.cubes.get(key)
        if cube is None:
            return
        cube.hits = self._decayed(cube.hits, cube.last_touch, now) + 1.0
        cube.last_touch = now

    # -- policy -------------------------------------------------------------

    def _decayed(self, value: float, since: float, now: float) -> float:
        dt = max(0.0, now - since)
        return value * (2.0 ** (-DECAY * dt))

    def score(self, cube: Cube, now: float) -> float:
        """Hit-rate x cost-saved per resident byte.  The cell count a
        hit would otherwise descend for is the cost proxy; +1 bytes
        avoids a zero denominator for still-empty cubes."""
        hits = self._decayed(cube.hits, cube.last_touch, now)
        return hits * cube.num_cells / (cube.resident_bytes() + 1.0)

    def note_miss(self, key: CubeKey, now: float) -> bool:
        """Bump the decayed demand for a candidate key; True when it
        crossed ``admit_after`` (caller should try to admit)."""
        ewma, t = self._demand.get(key, (0.0, now))
        ewma = self._decayed(ewma, t, now) + 1.0
        self._demand[key] = (ewma, now)
        return ewma >= self.admit_after

    def admissible(self, key: CubeKey) -> bool:
        shape = cube_shape(self.schema, key)
        cells = 1
        for n in shape:
            cells *= n
        return cells <= self.max_cells

    def admit(
        self, key: CubeKey, now: float, shard_count: int = 1
    ) -> Optional[Cube]:
        """Materialize ``key``: make room under ``budget_bytes`` by
        evicting lower-scoring cubes, or refuse (returns ``None``) when
        the key is too big or everything resident outscores it."""
        if key in self.cubes:
            return self.cubes[key]
        if not self.admissible(key):
            return None
        shape = cube_shape(self.schema, key)
        cells = 1
        for n in shape:
            cells *= n
        est_bytes = cells * CELL_BYTES * max(1, shard_count)
        if est_bytes > self.budget_bytes:
            return None
        ewma, t = self._demand.get(key, (0.0, now))
        incoming_score = self._decayed(ewma, t, now) * cells / (est_bytes + 1.0)
        while self.resident_bytes() + est_bytes > self.budget_bytes:
            victim = min(
                self.cubes.values(), key=lambda c: self.score(c, now)
            )
            if self.score(victim, now) > incoming_score:
                return None  # everything resident is hotter: keep it
            self.drop(victim.key)
            self.evictions += 1
        cube = Cube(
            key, shape, cells, hits=0.0, last_touch=now, created=now
        )
        self.cubes[key] = cube
        self._demand.pop(key, None)
        self.admissions += 1
        return cube

    def drop(self, key: CubeKey) -> Optional[Cube]:
        return self.cubes.pop(key, None)

    def drop_shard(self, sid: int) -> None:
        """Forget one shard's slabs everywhere (migrate/promote/split:
        the stream restarts, so the slab must be rebuilt)."""
        for cube in self.cubes.values():
            cube.slabs.pop(sid, None)

    def shard_ids(self) -> set[int]:
        out: set[int] = set()
        for cube in self.cubes.values():
            out.update(cube.slabs)
        return out
