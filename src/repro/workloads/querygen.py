"""Coverage-binned query generation (paper Section IV).

"Queries are randomly generated to span a wide range of coverages, and
specify values at various levels in all dimensions.  Generated queries
are tested against the database and binned according to their true
coverage.  During benchmarking, queries are chosen uniformly at random
from the appropriate bin."

We reproduce that procedure exactly: random per-dimension constraints
(a contiguous run of values at a random hierarchy level -- e.g. "years
3..7", "category 2"), true coverage measured against a reference sample
of the database, binning, and uniform draws per bin.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.array_store import ArrayStore
from ..olap.keys import Box
from ..olap.query import Query
from ..olap.records import RecordBatch
from ..olap.schema import Schema

__all__ = ["QueryGenerator", "CoverageBins", "PAPER_BINS"]

#: The paper's coverage bands: low < 33%, medium 33-66%, high > 66%.
PAPER_BINS: tuple[tuple[float, float], ...] = (
    (0.0, 1.0 / 3.0),
    (1.0 / 3.0, 2.0 / 3.0),
    (2.0 / 3.0, 1.0),
)

PAPER_BIN_NAMES = ("low", "medium", "high")

#: chance that a random query constrains a given dimension
CONSTRAIN_PROB = 0.5


class CoverageBins:
    """Queries grouped by measured coverage band."""

    def __init__(self, edges: Sequence[tuple[float, float]], names: Sequence[str]):
        if len(edges) != len(names):
            raise ValueError("edges and names must align")
        self.edges = tuple(edges)
        self.names = tuple(names)
        self.queries: dict[str, list[Query]] = {n: [] for n in names}

    def add(self, query: Query) -> bool:
        """File a measured query into its band; False if out of range."""
        for (lo, hi), name in zip(self.edges, self.names):
            if lo <= query.coverage <= hi:
                self.queries[name].append(query)
                return True
        return False

    def counts(self) -> dict[str, int]:
        return {n: len(qs) for n, qs in self.queries.items()}

    def sample(self, name: str, rng: np.random.Generator) -> Query:
        qs = self.queries[name]
        if not qs:
            raise ValueError(f"bin {name!r} is empty")
        return qs[int(rng.integers(0, len(qs)))]


class QueryGenerator:
    """Random hierarchical queries with measured true coverage."""

    def __init__(
        self,
        schema: Schema,
        reference: RecordBatch,
        seed: int = 0,
    ):
        """``reference`` is a sample of the database used to measure the
        true coverage of each generated query (the paper tests generated
        queries "against the database")."""
        if len(reference) == 0:
            raise ValueError("reference sample must be non-empty")
        self.schema = schema
        self.rng = np.random.default_rng(seed)
        self._ref = ArrayStore.from_batch(schema, reference)
        self._ref_n = len(reference)

    # -- single query ----------------------------------------------------

    def random_query(self) -> Query:
        """One random query; constraints at random levels, random runs."""
        lo = np.zeros(self.schema.num_dims, dtype=np.int64)
        hi = self.schema.leaf_limits.copy()
        for d, dim in enumerate(self.schema.dimensions):
            if self.rng.random() >= CONSTRAIN_PROB:
                continue
            h = dim.hierarchy
            depth = int(self.rng.integers(1, h.num_levels + 1))
            # a contiguous run of values at `depth`: [start, start+run-1].
            # Half the draws use short runs (selective queries), half use
            # uniform widths so wide, high-coverage constraints also occur.
            prefix_space = 1
            for lvl in h.levels[:depth]:
                prefix_space <<= lvl.bits
            if self.rng.random() < 0.5:
                run = 1 + int(self.rng.geometric(0.3))
            else:
                run = 1 + int(self.rng.integers(0, prefix_space))
            start = int(self.rng.integers(0, prefix_space))
            end = min(start + run - 1, prefix_space - 1)
            below = h.suffix_bits(depth)
            lo[d] = start << below
            hi[d] = ((end + 1) << below) - 1
        q = Query(Box(lo, hi, copy=False))
        q.coverage = self.measure_coverage(q)
        return q

    def measure_coverage(self, query: Query) -> float:
        """True coverage of ``query`` against the reference sample."""
        return self._ref.count_in(query.box) / self._ref_n

    # -- binned generation -------------------------------------------------

    def generate_bins(
        self,
        per_bin: int,
        edges: Sequence[tuple[float, float]] = PAPER_BINS,
        names: Sequence[str] = PAPER_BIN_NAMES,
        max_attempts: Optional[int] = None,
    ) -> CoverageBins:
        """Generate until every bin holds ``per_bin`` queries.

        High-coverage queries are rare under uniform generation, so when
        a bin starves the generator falls back to *targeted* queries:
        boxes spanning a random corner-anchored fraction of the id
        space, which yield a continuum of coverages.
        """
        bins = CoverageBins(edges, names)
        attempts = 0
        limit = max_attempts if max_attempts is not None else per_bin * 300
        while (
            any(len(bins.queries[n]) < per_bin for n in names)
            and attempts < limit
        ):
            attempts += 1
            q = self.random_query()
            name = self._bin_name(q.coverage, edges, names)
            if name is not None and len(bins.queries[name]) < per_bin:
                bins.queries[name].append(q)
            elif attempts % 3 == 0:
                # help starving bins along with a targeted query
                starving = [n for n in names if len(bins.queries[n]) < per_bin]
                if starving:
                    tq = self._targeted_query(
                        edges[names.index(starving[0])]
                    )
                    tname = self._bin_name(tq.coverage, edges, names)
                    if tname is not None and len(bins.queries[tname]) < per_bin:
                        bins.queries[tname].append(tq)
        for n in names:
            if not bins.queries[n]:
                raise RuntimeError(
                    f"could not generate any query in bin {n!r}; "
                    "reference sample may be too small"
                )
        return bins

    @staticmethod
    def _bin_name(coverage, edges, names):
        for (lo, hi), name in zip(edges, names):
            if lo <= coverage <= hi:
                return name
        return None

    def _targeted_query(self, band: tuple[float, float]) -> Query:
        """A box aimed at a coverage band.

        Shrinks one or two random dimensions to a fraction of their
        range; repeated draws explore the band.
        """
        target = self.rng.uniform(*band)
        lo = np.zeros(self.schema.num_dims, dtype=np.int64)
        hi = self.schema.leaf_limits.copy()
        k = int(self.rng.integers(1, 3))
        dims = self.rng.choice(self.schema.num_dims, size=k, replace=False)
        frac = max(target, 1e-6) ** (1.0 / k)
        for d in dims:
            width = int(self._ref_width(d) * frac)
            width = max(width, 1)
            span = int(self.schema.leaf_limits[d]) + 1
            start = int(self.rng.integers(0, max(1, span - width)))
            lo[d] = start
            hi[d] = min(start + width - 1, span - 1)
        q = Query(Box(lo, hi, copy=False))
        q.coverage = self.measure_coverage(q)
        return q

    def _ref_width(self, d: int) -> int:
        return int(self.schema.leaf_limits[d]) + 1

    # -- convenience ---------------------------------------------------------

    def queries_for_coverage(
        self, band: tuple[float, float], n: int, max_attempts: int = 5000
    ) -> list[Query]:
        """``n`` queries whose measured coverage falls within ``band``."""
        out: list[Query] = []
        attempts = 0
        while len(out) < n and attempts < max_attempts:
            attempts += 1
            q = self._targeted_query(band) if attempts % 2 else self.random_query()
            if band[0] <= q.coverage <= band[1]:
                out.append(q)
        if not out:
            raise RuntimeError(f"no queries found in coverage band {band}")
        return out
