"""Roll-up primitives: grouped aggregates and materialized cube cells.

The paper's system answers single aggregate-range queries; real OLAP
sessions ask the grouped form ("sales *by month*", "revenue by region x
category").  Two families of helpers live here:

* **query-side** -- :func:`group_boxes` / :func:`rollup` / :func:`pivot`
  / :func:`drilldown_path` express a group-by as one range query per
  group member, which the cached per-node aggregates of the PDC-tree
  family answer cheaply; each group is a hierarchy-aligned box, exactly
  the shape the index optimises for;
* **cube-side** -- :class:`CubeKey` names a materialized rollup cube by
  its (dimension-set, level-tuple); :class:`CubeCells` is one dense slab
  of per-cell distributive aggregates, maintained incrementally by
  :func:`accumulate_cells` and answered by slicing.  The distributed
  rollup tier (``repro.olap.rollup_store`` / ``repro.cluster.router``)
  keeps one slab per (cube, shard) and merges slices across shards.

A box is *answerable* by a cube when every cube dimension's interval is
aligned to that dimension's level grid and every other dimension is
unconstrained -- :func:`cube_ranges` performs that check and returns the
per-axis cell ranges to slice.

Works against any :class:`~repro.core.base.ShardStore` (single node) --
for the distributed system, issue the same per-group queries through a
client session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from ..core.aggregates import Aggregate
from .keys import Box
from .schema import Schema

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import ShardStore

__all__ = [
    "rollup",
    "pivot",
    "drilldown_path",
    "group_boxes",
    "CubeKey",
    "CubeCells",
    "cube_shape",
    "cell_indices",
    "accumulate_cells",
    "cube_ranges",
    "cube_candidate",
]


def group_boxes(
    schema: Schema,
    dim_name: str,
    depth: int,
    within: Optional[Box] = None,
) -> Iterator[tuple[tuple[int, ...], Box]]:
    """Yield ``(group_path, box)`` for every value at ``depth`` of a
    dimension, optionally restricted to the region ``within``.

    Only groups whose box intersects ``within`` are yielded, and the
    yielded boxes are clipped to it.
    """
    d = schema.index_of(dim_name)
    h = schema.dimension(dim_name).hierarchy
    if not 1 <= depth <= h.num_levels:
        raise ValueError(f"depth {depth} out of range for {dim_name!r}")
    base_lo = np.zeros(schema.num_dims, dtype=np.int64)
    base_hi = schema.leaf_limits.copy()
    if within is not None:
        base_lo = within.lo.copy()
        base_hi = within.hi.copy()

    def paths(prefix: tuple[int, ...], level: int):
        if level == depth:
            yield prefix
            return
        for v in range(h.levels[level].fanout):
            yield from paths(prefix + (v,), level + 1)

    for path in paths((), 0):
        prefix = h.encode_prefix(path)
        lo_d, hi_d = h.prefix_range(depth, prefix)
        lo = base_lo.copy()
        hi = base_hi.copy()
        lo[d] = max(lo[d], lo_d)
        hi[d] = min(hi[d], hi_d)
        if lo[d] > hi[d]:
            continue
        yield path, Box(lo, hi, copy=False)


def rollup(
    store: "ShardStore",
    dim_name: str,
    depth: int,
    within: Optional[Box] = None,
    keep_empty: bool = False,
) -> dict[tuple[int, ...], "Aggregate"]:
    """Aggregate grouped by the values of one dimension at ``depth``.

    >>> by_year = rollup(tree, "date", 1)            # doctest: +SKIP
    >>> by_month = rollup(tree, "date", 2, within=q.box)  # doctest: +SKIP
    """
    out: dict[tuple[int, ...], "Aggregate"] = {}
    for path, box in group_boxes(store.schema, dim_name, depth, within):
        agg, _ = store.query(box)
        if agg.count or keep_empty:
            out[path] = agg
    return out


def pivot(
    store: "ShardStore",
    row_dim: str,
    row_depth: int,
    col_dim: str,
    col_depth: int,
    within: Optional[Box] = None,
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], "Aggregate"]:
    """Two-dimensional grouped aggregate (cross-tab).

    Returns ``{(row_path, col_path): aggregate}`` for non-empty cells.
    """
    if row_dim == col_dim:
        raise ValueError("pivot requires two distinct dimensions")
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], "Aggregate"] = {}
    for row_path, row_box in group_boxes(
        store.schema, row_dim, row_depth, within
    ):
        for col_path, cell_box in group_boxes(
            store.schema, col_dim, col_depth, row_box
        ):
            agg, _ = store.query(cell_box)
            if agg.count:
                out[(row_path, col_path)] = agg
    return out


def drilldown_path(
    store: "ShardStore",
    dim_name: str,
    path: tuple[int, ...],
    within: Optional[Box] = None,
) -> dict[tuple[int, ...], "Aggregate"]:
    """One drill-down step: aggregates of the children of ``path``.

    With an empty path, returns the top-level roll-up.
    """
    h = store.schema.dimension(dim_name).hierarchy
    depth = len(path) + 1
    if depth > h.num_levels:
        raise ValueError(f"cannot drill below the leaf level of {dim_name!r}")
    full = rollup(store, dim_name, depth, within)
    return {p: a for p, a in full.items() if p[: len(path)] == tuple(path)}


# -- materialized cube cells ------------------------------------------------


@dataclass(frozen=True)
class CubeKey:
    """Identity of a materialized rollup cube: which dimensions it
    groups by, and at which hierarchy depth each.

    ``dims`` are dimension names in schema order and ``depths`` the
    matching 1-based depths; the empty key ``CubeKey((), ())`` is the
    one-cell global cube.  The key is hashable and wire-able (a plain
    tuple of pairs), so it travels in sync messages unchanged.
    """

    dims: tuple[str, ...]
    depths: tuple[int, ...]

    @staticmethod
    def make(schema: Schema, items: Sequence[tuple[str, int]]) -> "CubeKey":
        """Build a key from ``(dim_name, depth)`` pairs in any order."""
        ordered = sorted(items, key=lambda it: schema.index_of(it[0]))
        for name, depth in ordered:
            h = schema.dimension(name).hierarchy
            if not 1 <= depth <= h.num_levels:
                raise ValueError(f"depth {depth} out of range for {name!r}")
        return CubeKey(
            tuple(n for n, _ in ordered), tuple(int(d) for _, d in ordered)
        )

    def to_wire(self) -> tuple:
        return tuple(zip(self.dims, self.depths))

    @staticmethod
    def from_wire(wire: tuple) -> "CubeKey":
        return CubeKey(
            tuple(n for n, _ in wire), tuple(int(d) for _, d in wire)
        )

    def level_items(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.dims, self.depths))


def cube_shape(schema: Schema, key: CubeKey) -> tuple[int, ...]:
    """Cells per axis: one axis per cube dimension, sized by the number
    of *encoded* prefixes at that depth (``2**prefix_bits``; slots for
    ids beyond a level's fanout exist but stay empty)."""
    shape = []
    for name, depth in key.level_items():
        h = schema.dimension(name).hierarchy
        shape.append(1 << (h.total_bits - h.suffix_bits(depth)))
    return tuple(shape)


def cell_indices(
    schema: Schema, key: CubeKey, coords: np.ndarray
) -> np.ndarray:
    """Flat cell index of every row (C-order over :func:`cube_shape`)."""
    n = coords.shape[0]
    idx = np.zeros(n, dtype=np.int64)
    for name, depth in key.level_items():
        d = schema.index_of(name)
        h = schema.dimension(name).hierarchy
        width = 1 << (h.total_bits - h.suffix_bits(depth))
        idx = idx * width + (coords[:, d] >> h.suffix_bits(depth))
    return idx


class CubeCells:
    """One dense slab of per-cell distributive aggregates.

    Four flat arrays (count, sum, min, max) over the flattened cube
    shape; empty cells hold the identity (``0 / 0.0 / +inf / -inf``) so
    slicing needs no occupancy mask.  The same slab type is built by
    workers (seeding a cube from a shard scan) and updated by servers
    (folding in acknowledged insert-stream batches), which is what keeps
    the two sides bit-identical.
    """

    __slots__ = ("num_cells", "counts", "sums", "mins", "maxs")
    num_cells: int
    counts: np.ndarray
    sums: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray

    def __init__(self, num_cells: int):
        self.num_cells = int(num_cells)
        self.counts = np.zeros(self.num_cells, dtype=np.int64)
        self.sums = np.zeros(self.num_cells, dtype=np.float64)
        self.mins = np.full(self.num_cells, np.inf, dtype=np.float64)
        self.maxs = np.full(self.num_cells, -np.inf, dtype=np.float64)

    def apply(self, idx: np.ndarray, measures: np.ndarray) -> None:
        """Fold rows (by precomputed flat cell index) into the slab."""
        if idx.shape[0] == 0:
            return
        self.counts += np.bincount(idx, minlength=self.num_cells)
        self.sums += np.bincount(
            idx, weights=measures, minlength=self.num_cells
        )
        np.minimum.at(self.mins, idx, measures)
        np.maximum.at(self.maxs, idx, measures)

    def merge(self, other: "CubeCells") -> None:
        self.counts += other.counts
        self.sums += other.sums
        np.minimum(self.mins, other.mins, out=self.mins)
        np.maximum(self.maxs, other.maxs, out=self.maxs)

    def select(
        self, shape: tuple[int, ...], ranges: Sequence[tuple[int, int]]
    ) -> Aggregate:
        """Aggregate of the cells in the (inclusive) per-axis ranges."""
        slicer = tuple(slice(lo, hi + 1) for lo, hi in ranges)
        counts = self.counts.reshape(shape)[slicer]
        count = int(counts.sum())
        if count == 0:
            return Aggregate.empty()
        return Aggregate(
            count,
            float(self.sums.reshape(shape)[slicer].sum()),
            float(self.mins.reshape(shape)[slicer].min()),
            float(self.maxs.reshape(shape)[slicer].max()),
        )

    def resident_bytes(self) -> int:
        """Heap footprint of the slab (same contract as the stores')."""
        return (
            self.counts.nbytes
            + self.sums.nbytes
            + self.mins.nbytes
            + self.maxs.nbytes
        )


def accumulate_cells(
    schema: Schema,
    key: CubeKey,
    coords: np.ndarray,
    measures: np.ndarray,
    into: Optional[CubeCells] = None,
) -> CubeCells:
    """Fold ``(coords, measures)`` rows into a slab for ``key``
    (creating it when ``into`` is ``None``)."""
    shape = cube_shape(schema, key)
    num_cells = int(np.prod(shape)) if shape else 1
    cells = into if into is not None else CubeCells(num_cells)
    cells.apply(cell_indices(schema, key, coords), measures)
    return cells


def cube_ranges(
    schema: Schema, key: CubeKey, box: Box
) -> Optional[list[tuple[int, int]]]:
    """Per-axis cell ranges a cube must slice to answer ``box``, or
    ``None`` when the cube cannot answer it exactly.

    Answerable means: every cube dimension's interval is aligned to the
    cube's level grid (``lo`` and ``hi + 1`` both multiples of the
    cells' leaf width), and every non-cube dimension is unconstrained
    (full leaf range, which is trivially grid-aligned at any depth).
    """
    in_key = set(key.dims)
    for d in range(schema.num_dims):
        name = schema.dimensions[d].name
        if name in in_key:
            continue
        if int(box.lo[d]) != 0 or int(box.hi[d]) != int(
            schema.leaf_limits[d]
        ):
            return None
    ranges: list[tuple[int, int]] = []
    for name, depth in key.level_items():
        d = schema.index_of(name)
        h = schema.dimension(name).hierarchy
        s = h.suffix_bits(depth)
        width = 1 << s
        lo, hi = int(box.lo[d]), int(box.hi[d])
        if lo % width != 0 or (hi + 1) % width != 0:
            return None
        ranges.append((lo >> s, hi >> s))
    return ranges


def cube_candidate(schema: Schema, box: Box) -> CubeKey:
    """The cheapest cube able to answer ``box``: for every constrained
    dimension, the coarsest hierarchy depth whose grid the interval is
    aligned to (the leaf level always is); unconstrained dimensions stay
    out of the key.  A fully unconstrained box maps to the one-cell
    global cube."""
    items: list[tuple[str, int]] = []
    for d in range(schema.num_dims):
        lo, hi = int(box.lo[d]), int(box.hi[d])
        if lo == 0 and hi == int(schema.leaf_limits[d]):
            continue
        h = schema.dimensions[d].hierarchy
        for depth in range(1, h.num_levels + 1):
            width = 1 << h.suffix_bits(depth)
            if lo % width == 0 and (hi + 1) % width == 0:
                items.append((schema.dimensions[d].name, depth))
                break
    return CubeKey.make(schema, items)
