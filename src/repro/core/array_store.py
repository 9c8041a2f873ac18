"""Flat array shard store (benchmarking baseline).

The paper lists "a simple array for benchmarking purposes" among the
five shard data structures.  Inserts are O(1) appends into growable
arrays; queries are full vectorised scans.  It is the correctness oracle
for the tree variants in tests, and the no-index baseline in benches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..olap.keys import Box
from ..olap.records import RecordBatch
from ..olap.schema import Schema
from .aggregates import Aggregate
from .base import ShardStore
from .config import OpStats, TreeConfig

__all__ = ["ArrayStore"]


def _resized(arr: np.ndarray, shape: tuple) -> np.ndarray:
    """``arr`` grown along its first axis to ``shape``, the new rows
    zeroed: in place where numpy allows it, else a copy."""
    try:
        arr.resize(shape)
        return arr
    except ValueError:  # referenced elsewhere: a profiler, a view
        out = np.zeros(shape, dtype=arr.dtype)
        out[: len(arr)] = arr
        return out


class ArrayStore(ShardStore):
    """Append-only columnar store with full-scan queries."""

    def __init__(self, schema: Schema, config: Optional[TreeConfig] = None):
        self.schema = schema
        self.config = config if config is not None else TreeConfig()
        self._cap = 1024
        self._coords = np.empty((self._cap, schema.num_dims), dtype=np.int64)
        self._measures = np.empty(self._cap, dtype=np.float64)
        self._size = 0

    def _grow(self, need: int) -> None:
        """Grow by a quarter at a time, reallocating in place.

        ``ndarray.resize`` is a ``realloc``: a large store moves
        without ever holding its old and its new buffer at once, where a
        copy into a doubled buffer peaks at twice the rows held each
        time it grows.  The new rows are zero-filled, i.e. touched,
        hence the small step.  numpy refuses the in-place resize while
        anything else references the array -- a profiler's frame or a
        view held by a caller -- and then the rows are copied into a
        new buffer of the grown size instead.
        """
        while self._cap < need:
            self._cap += max(self._cap // 4, 1024)
        self._coords = _resized(self._coords, (self._cap, self.schema.num_dims))
        self._measures = _resized(self._measures, (self._cap,))

    def insert(self, coords: np.ndarray, measure: float) -> OpStats:
        if self._size == self._cap:
            self._grow(self._size + 1)
        self._coords[self._size] = coords
        self._measures[self._size] = measure
        self._size += 1
        return OpStats(nodes_visited=1)

    def extend(self, batch: RecordBatch) -> None:
        """Vectorised bulk append."""
        n = len(batch)
        if self._size + n > self._cap:
            self._grow(self._size + n)
        self._coords[self._size : self._size + n] = batch.coords
        self._measures[self._size : self._size + n] = batch.measures
        self._size += n

    def insert_batch(self, batch: RecordBatch, words=None) -> OpStats:
        self.extend(batch)
        return OpStats(nodes_visited=1)

    def query(self, box: Box) -> tuple[Aggregate, OpStats]:
        stats = OpStats(nodes_visited=1, leaves_visited=1, items_scanned=self._size)
        if self._size == 0:
            return Aggregate.empty(), stats
        mask = box.contains_points(self._coords[: self._size])
        return Aggregate.of_array(self._measures[: self._size][mask]), stats

    def count_in(self, box: Box) -> int:
        """Exact number of items in ``box`` (used for query coverage)."""
        if self._size == 0:
            return 0
        return int(box.contains_points(self._coords[: self._size]).sum())

    def items(self) -> RecordBatch:
        return RecordBatch(
            self._coords[: self._size].copy(), self._measures[: self._size].copy()
        )

    def __len__(self) -> int:
        return self._size

    def resident_bytes(self) -> int:
        """Exact bytes of the allocated column buffers."""
        return self._coords.nbytes + self._measures.nbytes

    def mbr(self) -> Box:
        if self._size == 0:
            return Box.empty(self.schema.num_dims)
        return Box.from_points(self._coords[: self._size])

    @classmethod
    def from_batch(
        cls, schema: Schema, batch: RecordBatch, config: Optional[TreeConfig] = None
    ) -> "ArrayStore":
        store = cls(schema, config)
        store.extend(batch)
        return store
