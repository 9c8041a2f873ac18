"""Mixed insert/query operation streams (paper "workload mix").

The paper benchmarks streams of interspersed insertions and aggregate
queries; "workload mix 25% is 25% inserts and 75% aggregate queries"
(Section IV).  :class:`StreamGenerator` produces such streams with a
chosen insert fraction and a chosen coverage-band mixture for the query
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..olap.query import Query
from ..olap.records import RecordBatch
from .querygen import CoverageBins
from .tpcds import TPCDSGenerator

__all__ = ["Operation", "StreamGenerator"]


@dataclass
class Operation:
    """One element of an operation stream."""

    kind: str  # "insert" | "query"
    coords: Optional[np.ndarray] = None
    measure: float = 0.0
    query: Optional[Query] = None

    @property
    def is_insert(self) -> bool:
        return self.kind == "insert"


class StreamGenerator:
    """Interleaved insert/query streams with a fixed workload mix."""

    def __init__(
        self,
        generator: TPCDSGenerator,
        bins: CoverageBins,
        insert_fraction: float,
        coverage_mix: Optional[Sequence[str]] = None,
        seed: int = 0,
    ):
        """``coverage_mix`` lists the bins to draw queries from
        (uniformly); defaults to every non-empty bin."""
        if not 0.0 <= insert_fraction <= 1.0:
            raise ValueError("insert_fraction must be in [0, 1]")
        self.generator = generator
        self.bins = bins
        self.insert_fraction = insert_fraction
        self.rng = np.random.default_rng(seed)
        if coverage_mix is None:
            coverage_mix = [n for n in bins.names if bins.queries[n]]
        if not coverage_mix:
            raise ValueError("no query bins available")
        for name in coverage_mix:
            if not bins.queries[name]:
                raise ValueError(f"coverage bin {name!r} is empty")
        self.coverage_mix = list(coverage_mix)

    def operations(self, n: int, insert_chunk: int = 256) -> Iterator[Operation]:
        """Yield ``n`` operations with the configured mix.

        Inserts draw rows from the TPC-DS generator (pre-generated in
        chunks to keep the draw vectorised); queries are sampled
        uniformly from the configured coverage bins.
        """
        pending: Optional[RecordBatch] = None
        used = 0
        emitted = 0
        while emitted < n:
            if self.rng.random() < self.insert_fraction:
                if pending is None or used == len(pending):
                    pending = self.generator.batch(insert_chunk)
                    used = 0
                yield Operation(
                    "insert",
                    coords=pending.coords[used],
                    measure=float(pending.measures[used]),
                )
                used += 1
            else:
                name = self.coverage_mix[
                    int(self.rng.integers(0, len(self.coverage_mix)))
                ]
                yield Operation("query", query=self.bins.sample(name, self.rng))
            emitted += 1

    def batch_plan(self, n: int) -> tuple[int, int]:
        """Expected (inserts, queries) for a stream of length ``n``."""
        ins = round(n * self.insert_fraction)
        return ins, n - ins
