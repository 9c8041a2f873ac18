"""Record batches: numpy-backed bundles of coordinates and measures.

Throughout the library, a data item is a vector of per-dimension
leaf-level encoded ids (int64) together with one float64 measure.
Batches keep these in contiguous arrays so leaf scans, bulk loads, and
serialisation are vectorised.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .schema import Schema

__all__ = ["RecordBatch", "concat_batches"]


class RecordBatch:
    """A column bundle of ``(n, d)`` int64 coords and ``(n,)`` measures."""

    __slots__ = ("coords", "measures")

    def __init__(self, coords: np.ndarray, measures: np.ndarray, *, copy: bool = False):
        # ``np.array(copy=False)`` means "never copy" on NumPy >= 2;
        # ``asarray`` keeps matching arrays as views and converts the rest
        as_array = np.array if copy else np.asarray
        coords = as_array(coords, dtype=np.int64)
        measures = as_array(measures, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError("coords must be (n, d)")
        if measures.shape != (coords.shape[0],):
            raise ValueError(
                f"measures shape {measures.shape} != ({coords.shape[0]},)"
            )
        self.coords = coords
        self.measures = measures

    @staticmethod
    def empty(num_dims: int) -> "RecordBatch":
        return RecordBatch(
            np.empty((0, num_dims), dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def num_dims(self) -> int:
        return self.coords.shape[1]

    def row(self, i: int) -> tuple[np.ndarray, float]:
        return self.coords[i], float(self.measures[i])

    def take(self, idx: np.ndarray) -> "RecordBatch":
        return RecordBatch(self.coords[idx], self.measures[idx])

    def slice(self, start: int, stop: int) -> "RecordBatch":
        return RecordBatch(self.coords[start:stop], self.measures[start:stop])

    def iter_rows(self) -> Iterator[tuple[np.ndarray, float]]:
        for i in range(len(self)):
            yield self.coords[i], float(self.measures[i])

    def validate(self, schema: Schema) -> None:
        if self.num_dims != schema.num_dims:
            raise ValueError(
                f"batch has {self.num_dims} dims, schema has {schema.num_dims}"
            )
        if len(self):
            schema.validate_coords(self.coords)

    # -- serialisation (used by shard migration) --------------------------

    def to_bytes(self) -> bytes:
        """Flat binary blob: header + coords + measures."""
        n, d = self.coords.shape
        header = np.array([n, d], dtype=np.int64).tobytes()
        return header + self.coords.tobytes() + self.measures.tobytes()

    @staticmethod
    def from_bytes(blob: bytes) -> "RecordBatch":
        n, d = np.frombuffer(blob[:16], dtype=np.int64)
        n, d = int(n), int(d)
        coords_end = 16 + n * d * 8
        coords = np.frombuffer(blob[16:coords_end], dtype=np.int64).reshape(n, d)
        measures = np.frombuffer(blob[coords_end : coords_end + n * 8], dtype=np.float64)
        return RecordBatch(coords.copy(), measures.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch(n={len(self)}, d={self.num_dims})"


def concat_batches(batches: list[RecordBatch], num_dims: int) -> RecordBatch:
    """Concatenate batches (empty result if the list is empty)."""
    if not batches:
        return RecordBatch.empty(num_dims)
    return RecordBatch(
        np.concatenate([b.coords for b in batches], axis=0),
        np.concatenate([b.measures for b in batches]),
    )
