"""Columnar (SoA) leaf storage.

A :class:`LeafColumns` owns every per-item buffer of one tree leaf as a
preallocated numpy column:

* ``coords`` -- ``(capacity, d)`` int64 coordinate rows;
* ``measures`` -- ``(capacity,)`` float64;
* ``hwords`` -- ``(capacity, w)`` big-endian uint64 Hilbert key words
  (Hilbert trees only; ``None`` in geometric trees), replacing the old
  per-leaf list of arbitrary-precision Python ints;
* ``agg`` -- the leaf's aggregate accumulator, recomputable from the
  live measures in one broadcast (:meth:`reaggregate`).

With this layout leaf scans (one gather over every leaf a query
collects), aggregate recompute and repack-on-overflow are single
vectorized operations over contiguous buffers -- no Python objects
per record remain anywhere in a leaf.  Key order is preserved because
the words are unsigned big-endian: lexicographic row order equals
numeric key order, so the stable
``np.lexsort`` (:func:`~repro.hilbert.compact_hilbert.lexsort_words`)
produces exactly the permutation ``sorted`` produced on Python ints.

Geometric leaves take rows one at a time (:meth:`LeafColumns.append`);
Hilbert leaves take key-sorted blocks with their key words, per row
and per batch alike (:meth:`LeafColumns.extend`, :meth:`LeafColumns.set_rows`).
Writers append rows *before* publishing the new ``size`` (a single
int assignment), so a racing reader that slices ``coords[:size]`` under
the node lock can never observe an out-of-bounds or torn view.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hilbert.compact_hilbert import argmax_words, key_from_words
from .aggregates import Aggregate

__all__ = ["LeafColumns"]


class LeafColumns:
    __slots__ = ("coords", "measures", "hwords", "agg", "size")

    def __init__(self, capacity: int, num_dims: int, key_words: int = 0):
        self.coords = np.empty((capacity, num_dims), dtype=np.int64)
        self.measures = np.empty(capacity, dtype=np.float64)
        self.hwords: Optional[np.ndarray] = (
            np.empty((capacity, key_words), dtype=np.uint64)
            if key_words
            else None
        )
        self.agg = Aggregate.empty()
        self.size = 0

    @property
    def nbytes(self) -> int:
        """Allocated buffer bytes (capacity, not just live rows)."""
        n = self.coords.nbytes + self.measures.nbytes
        if self.hwords is not None:
            n += self.hwords.nbytes
        return n

    # -- live views --------------------------------------------------------

    def live_coords(self) -> np.ndarray:
        return self.coords[: self.size]

    def live_measures(self) -> np.ndarray:
        return self.measures[: self.size]

    def live_hwords(self) -> np.ndarray:
        return self.hwords[: self.size]

    # -- mutation ----------------------------------------------------------

    def append(self, coords: np.ndarray, measure: float) -> None:
        """Append one row of a leaf without Hilbert keys (caller checks
        capacity and holds the lock)."""
        i = self.size
        self.coords[i] = coords
        self.measures[i] = measure
        self.size = i + 1

    def extend(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        hwords: Optional[np.ndarray] = None,
    ) -> None:
        """Append a block of rows in three slice assignments."""
        i = self.size
        n = len(measures)
        self.coords[i : i + n] = coords
        self.measures[i : i + n] = measures
        if hwords is not None:
            self.hwords[i : i + n] = hwords
        self.size = i + n

    def set_rows(
        self,
        coords: np.ndarray,
        measures: np.ndarray,
        hwords: Optional[np.ndarray] = None,
    ) -> None:
        """Fill a fresh (unpublished) leaf's columns from arrays."""
        n = len(measures)
        self.coords[:n] = coords
        self.measures[:n] = measures
        if hwords is not None:
            self.hwords[:n] = hwords
        self.size = n

    # -- broadcasts --------------------------------------------------------

    def reaggregate(self) -> Aggregate:
        """Recompute and install the accumulator in one broadcast."""
        self.agg = Aggregate.of_array(self.live_measures())
        return self.agg

    def max_key(self) -> int:
        """Largest Hilbert key among the live rows, as a Python int."""
        return key_from_words(self.hwords[argmax_words(self.live_hwords())])

    def key_ints(self) -> list[int]:
        """Live Hilbert keys as Python ints (tests / validation only)."""
        return [key_from_words(row) for row in self.live_hwords()]
