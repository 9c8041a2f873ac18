"""Seeded inputs of the end-to-end benchmark.

Everything the cluster is fed -- bootstrap rows, insert rows, query
pools, the order ops are issued in -- is made here from the seed and
nothing else; the cluster receives only the generated batches and ops.
The oracle (a flat :class:`ArrayStore` over the same rows) and its
expected answers are also built here, before any timed window opens.

``SEED`` is the seed the committed numbers use; ``CLAIM_SEED`` is the
second seed a perf claim must also hold on (choosing-metrics, section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.aggregates import Aggregate
from repro.core.array_store import ArrayStore
from repro.olap.keys import Box
from repro.olap.query import Query, full_query
from repro.olap.records import RecordBatch
from repro.workloads import Operation, QueryGenerator, TPCDSGenerator, tpcds_schema

SEED = 20160912
CLAIM_SEED = 7

#: the paper's medium and high coverage bands (generate_bins)
SCAN_EDGES = ((1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0))
SCAN_CLASSES = ("medium", "high")
#: point = the cell of one existing row, every dimension at its deepest
#: level.  Not generate_bins' "<= 1 %" band: 88 % of its draws cover no
#: row at all and are pruned at the root, the rest cost as much as a
#: scan, so the pool's mean cost swung 5x from seed to seed (README).
CLASSES = ("point",) + SCAN_CLASSES


@dataclass(frozen=True)
class Sizes:
    """Fixed sizes of one benchmark run (see README, "Fixed sizes")."""

    bootstrap_rows: int
    shards_per_worker: int
    reference_rows: int
    queries_per_bin: int
    point_queries: int
    warmup_s: float
    #: ops of the fixed-count traced replay, per session kind
    replay_inserts: int
    replay_points: int
    replay_scans: int
    gate_queries: int
    setups: int

    def replay_ops(self, spec: "SessionSpec") -> int:
        if spec.kind == "insert":
            return self.replay_inserts
        return self.replay_points if spec.classes == ("point",) else self.replay_scans


#: 2 workers x 4 shards of 6 250 rows: under ThresholdPolicy's
#: max_shard_items=8000, so a read-only run sees no balancer op
FULL = Sizes(
    bootstrap_rows=50_000,
    shards_per_worker=4,
    reference_rows=20_000,
    queries_per_bin=40,
    point_queries=200,
    warmup_s=2.0,
    replay_inserts=8192,
    replay_points=1000,
    replay_scans=60,
    gate_queries=50,
    setups=3,
)
SMOKE = Sizes(
    bootstrap_rows=20_000,
    shards_per_worker=2,
    reference_rows=5_000,
    queries_per_bin=12,
    point_queries=40,
    warmup_s=0.5,
    replay_inserts=1024,
    replay_points=100,
    replay_scans=12,
    gate_queries=20,
    setups=2,
)


@dataclass(frozen=True)
class SessionSpec:
    """One closed-loop client session of a workload."""

    server: int
    kind: str  # "insert" | "query"
    #: query classes issued round-robin (empty for insert sessions)
    classes: tuple[str, ...] = ()
    concurrency: int = 1
    batch_size: int = 1


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    runtime: str
    sessions: tuple[SessionSpec, ...]

    @property
    def writes(self) -> bool:
        return any(s.kind == "insert" for s in self.sessions)


_INGEST = SessionSpec(server=0, kind="insert", concurrency=128, batch_size=64)
_MIX_READS = SessionSpec(server=1, kind="query", classes=CLASSES)

#: why each is here: BENCHMARK.json (``why``) and README.md
WORKLOADS: dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec("ingest", "asyncio", (_INGEST,)),
        WorkloadSpec(
            "query_point", "asyncio", tuple(SessionSpec(s, "query", ("point",)) for s in (0, 1))
        ),
        WorkloadSpec(
            "query_scan", "asyncio", tuple(SessionSpec(s, "query", SCAN_CLASSES) for s in (0, 1))
        ),
        WorkloadSpec("mixed", "asyncio", (_INGEST, _MIX_READS)),
        WorkloadSpec("mixed_mp", "mp", (_INGEST, _MIX_READS)),
    )
}


class OpStream:
    """The endless op sequence of one session, with each op's class.

    ``classes[i]`` is the class ("insert", "point", "medium", "high")
    of the i-th op handed out, and ``pool_index[i]`` the index of a
    query op in its class pool (so its expected answer can be found).
    """

    def __init__(self, dataset: "Dataset", spec: SessionSpec, index: int):
        self.spec = spec
        self._dataset = dataset
        # independent of the other sessions and of how much was taken
        self._rng = np.random.default_rng([dataset.seed, 1000 + index])
        self._gen = (
            TPCDSGenerator(dataset.schema, seed=dataset.seed * 31 + 17 + index)
            if spec.kind == "insert"
            else None
        )
        self.classes: list[str] = []
        self.pool_index: list[int] = []
        self.inserted: list[RecordBatch] = []

    def take(self, n: int) -> list[Operation]:
        if self._gen is not None:
            batch = self._gen.batch(n)
            self.inserted.append(batch)
            self.classes.extend(["insert"] * n)
            measures = batch.measures.tolist()
            return [
                Operation("insert", coords=batch.coords[i], measure=measures[i])
                for i in range(n)
            ]
        ops = []
        cycle = self.spec.classes
        picks = self._rng.integers(0, 1 << 30, size=n)
        for pick in picks.tolist():
            cls = cycle[len(self.classes) % len(cycle)]
            pool = self._dataset.pools[cls]
            pick %= len(pool)
            self.classes.append(cls)
            self.pool_index.append(pick)
            ops.append(Operation("query", query=pool[pick]))
        return ops


class Dataset:
    """Bootstrap rows, query pools and the oracle for one seed."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.schema = tpcds_schema()
        self.bootstrap = TPCDSGenerator(self.schema, seed=seed).batch(
            sizes.bootstrap_rows
        )
        reference = self.bootstrap.slice(0, sizes.reference_rows)
        self._querygen = QueryGenerator(self.schema, reference, seed=seed)
        bins = self._querygen.generate_bins(
            sizes.queries_per_bin, edges=SCAN_EDGES, names=SCAN_CLASSES
        )
        rows = np.random.default_rng([seed, 7]).choice(
            sizes.bootstrap_rows, size=sizes.point_queries, replace=False
        )
        points = [Query(Box.from_point(self.bootstrap.coords[i])) for i in rows]
        for q in points:
            q.coverage = self._querygen.measure_coverage(q)
        self.pools: dict[str, list[Query]] = {"point": points, **bins.queries}
        self.oracle = ArrayStore.from_batch(self.schema, self.bootstrap)
        #: answers over the bootstrap rows alone: exact for read-only
        #: workloads, the lower bound of a reply under concurrent writes
        self.expected: dict[str, list[Aggregate]] = {
            cls: [self.oracle.query(q.box)[0] for q in pool]
            for cls, pool in self.pools.items()
        }

    def stream(self, spec: SessionSpec, index: int) -> OpStream:
        return OpStream(self, spec, index)

    def gate_queries(self, acked: list[RecordBatch]) -> list[Query]:
        """Queries no session issued, for the quiescence gate of a write
        workload: the whole cube, the cells of rows the run inserted
        (acked rows must be visible), and random boxes."""
        rng = np.random.default_rng([self.seed, 11])
        n = self.sizes.gate_queries
        rows = np.concatenate([b.coords for b in acked])
        cells = rows[rng.choice(len(rows), size=min(n // 2, len(rows)), replace=False)]
        queries = [full_query(self.schema)]
        queries += [Query(Box.from_point(c)) for c in cells]
        queries += [self._querygen.random_query() for _ in range(n - len(queries))]
        return queries

    def corrupt(self) -> None:
        """Falsify expected answers (``--corrupt-oracle``): the run must
        then report wrong answers and exit non-zero."""
        for answers in self.expected.values():
            for agg in answers:
                agg.count += 1
        self.oracle.insert(self.bootstrap.coords[0], 1.0)


def oracle_with(dataset: Dataset, extra: list[RecordBatch]) -> ArrayStore:
    """The oracle extended by the rows a write workload got acked."""
    store = ArrayStore.from_batch(dataset.schema, dataset.oracle.items())
    for batch in extra:
        store.extend(batch)
    return store
