"""High-velocity sensor stream workload (append-heavy, time-skewed).

Models the Colmenares-style sensor-network feed the VOLAP paper cites
as a motivating high-velocity source: many stations emitting readings
at a steady cadence, so the stream is *append-heavy* (every batch
carries current timestamps -- the time dimension advances monotonically
with the row counter) and *spatially skewed* (a few busy stations
produce most readings, Zipf over the station hierarchy).

This shape is deliberately adversarial for a memory-budgeted cluster:
old time ranges go cold while their shards keep answering historical
roll-ups, which is exactly what the residency tier's spill/rehydrate
path (``benchmarks/bench_spill.py``) needs to exercise.

Measures are **fixed-point**: readings are quantized to 1/256 (a dyadic
step), so float64 sums of any realistic row count are exact and
independent of summation order.  Differential tests can therefore
require bit-identical aggregates between an all-hot run and a
spill/rehydrate run without fighting ULP drift.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..olap.hierarchy import Dimension, Hierarchy, Level
from ..olap.records import RecordBatch
from ..olap.schema import Schema
from .tpcds import _zipf_weights

__all__ = ["sensor_schema", "SensorStreamGenerator"]

#: quantization step for sensor readings; dyadic so float64 sums of
#: < 2**45 rows are exact regardless of summation order
QUANTUM = 1.0 / 256.0
#: readings per minute of the derived ``time`` dimension
ROWS_PER_MINUTE = 256


def sensor_schema() -> Schema:
    """Sensor-network schema: where, what, and when.

    ==========  ==========================================
    ``station``  region > site > station
    ``sensor``   kind > channel
    ``time``     day > hour > minute
    ==========  ==========================================
    """

    def dim(name: str, levels: list[tuple[str, int]]) -> Dimension:
        return Dimension(
            name, Hierarchy(name, [Level(n, f) for n, f in levels])
        )

    return Schema(
        [
            dim("station", [("region", 12), ("site", 24), ("station", 48)]),
            dim("sensor", [("kind", 8), ("channel", 16)]),
            dim("time", [("day", 64), ("hour", 24), ("minute", 60)]),
        ]
    )


class SensorStreamGenerator:
    """Append-heavy, time-skewed sensor readings over any schema with a
    ``time`` dimension.

    * Non-time dimensions draw per-level ids from Zipf-skewed
      categoricals (``skew``), so a handful of stations/channels carry
      most of the stream.
    * The ``time`` dimension is derived from a row counter: every
      :data:`ROWS_PER_MINUTE` readings advance one minute, minutes roll
      into hours, hours into days.  Batches therefore always append at
      the current edge of the time range -- the paper's high-velocity
      pattern -- and earlier days never receive new rows (they go cold).
    * Measures are Gamma-shaped readings quantized to :data:`QUANTUM`.

    The only protocol :class:`~repro.workloads.streams.StreamGenerator`
    needs is ``batch(n)``, which this class provides alongside the same
    ``stream(total, chunk)`` helper as :class:`TPCDSGenerator`.
    """

    def __init__(
        self,
        schema: Optional[Schema] = None,
        seed: int = 0,
        skew: float = 0.9,
    ):
        self.schema = schema if schema is not None else sensor_schema()
        self.rng = np.random.default_rng(seed)
        self.skew = skew
        self._clock = 0  # rows generated so far; the stream's only clock
        self._time_dim = next(
            (
                i
                for i, d in enumerate(self.schema.dimensions)
                if d.name == "time"
            ),
            None,
        )
        self._weights: list[list[np.ndarray]] = []
        for i, d in enumerate(self.schema.dimensions):
            if i == self._time_dim:
                self._weights.append([])
                continue
            self._weights.append(
                [
                    _zipf_weights(lvl.fanout, self.skew, self.rng)
                    for lvl in d.hierarchy.levels
                ]
            )

    def batch(self, n: int) -> RecordBatch:
        """Generate the next ``n`` readings at the stream's time edge."""
        coords = np.zeros((n, self.schema.num_dims), dtype=np.int64)
        for d, dim in enumerate(self.schema.dimensions):
            if d == self._time_dim:
                coords[:, d] = self._time_coords(n)
                continue
            h = dim.hierarchy
            value = np.zeros(n, dtype=np.int64)
            for lev, lvl in enumerate(h.levels):
                ids = self.rng.choice(
                    lvl.fanout, size=n, p=self._weights[d][lev]
                )
                value = (value << lvl.bits) | ids
            coords[:, d] = value
        self._clock += n
        raw = self.rng.gamma(2.0, 12.5, size=n)
        measures = np.round(raw / QUANTUM) * QUANTUM  # fixed-point
        return RecordBatch(coords, measures)

    def _time_coords(self, n: int) -> np.ndarray:
        """Row counter -> packed (day, hour, minute) ids; monotone."""
        levels = self.schema.dimensions[self._time_dim].hierarchy.levels
        minutes = (self._clock + np.arange(n)) // ROWS_PER_MINUTE
        value = np.zeros(n, dtype=np.int64)
        ids = []
        # split the absolute minute counter over the levels, finest last
        rest = minutes
        for lvl in reversed(levels):
            ids.append(rest % lvl.fanout)
            rest = rest // lvl.fanout
        for lvl, lvl_ids in zip(levels, reversed(ids)):
            value = (value << lvl.bits) | lvl_ids.astype(np.int64)
        return value

    def stream(self, total: int, chunk: int = 1000):
        """Yield successive batches until ``total`` rows are produced."""
        remaining = total
        while remaining > 0:
            k = min(chunk, remaining)
            yield self.batch(k)
            remaining -= k
