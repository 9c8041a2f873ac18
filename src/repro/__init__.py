"""VelocityOLAP (VOLAP) reproduction.

A scalable distributed system for real-time OLAP with high velocity
data (Dehne, Robillard, Rau-Chaplin, Burke -- IEEE CLUSTER 2016),
reproduced as a pure-Python library: the Hilbert PDC tree and its
baselines, the distributed server/worker/Zookeeper/manager architecture
(on a discrete-event substrate; see DESIGN.md), TPC-DS-style workloads,
and the PBS freshness analysis.

Quickstart
----------
>>> from repro import tpcds_schema, TPCDSGenerator, HilbertPDCTree, full_query
>>> schema = tpcds_schema()
>>> batch = TPCDSGenerator(schema, seed=0).batch(10_000)
>>> tree = HilbertPDCTree.from_batch(schema, batch)
>>> agg, _ = tree.query(full_query(schema).box)
>>> agg.count
10000
"""

from .core import (
    Aggregate,
    ArrayStore,
    HilbertPDCTree,
    HilbertRTree,
    OpStats,
    PDCTree,
    RTree,
    TreeConfig,
)
from .cluster import (
    BalancerPolicy,
    ClusterConfig,
    CostModel,
    LatencyModel,
    MemoryPressurePolicy,
    QueryResult,
    RollupConfig,
    ThresholdPolicy,
    VOLAPCluster,
)
from .freshness import LatencyDistribution, PBSSimulator
from .hilbert import CompactHilbertCurve, HilbertCurve, HilbertKeyMapper
from .obs import MetricsRegistry, Observability, TreeProfiler
from .olap import (
    Box,
    Dimension,
    Hierarchy,
    Level,
    MDS,
    Query,
    RecordBatch,
    Schema,
    full_query,
    query_from_levels,
)
from .olap.rollup import CubeKey, drilldown_path, pivot, rollup
from .workloads import (
    QueryGenerator,
    StreamGenerator,
    TPCDSGenerator,
    synthetic_schema,
    tpcds_schema,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "ArrayStore",
    "BalancerPolicy",
    "Box",
    "ClusterConfig",
    "CompactHilbertCurve",
    "CostModel",
    "Dimension",
    "Hierarchy",
    "HilbertCurve",
    "HilbertKeyMapper",
    "HilbertPDCTree",
    "HilbertRTree",
    "LatencyDistribution",
    "LatencyModel",
    "Level",
    "MDS",
    "MemoryPressurePolicy",
    "MetricsRegistry",
    "Observability",
    "OpStats",
    "PBSSimulator",
    "PDCTree",
    "CubeKey",
    "Query",
    "QueryGenerator",
    "QueryResult",
    "RollupConfig",
    "RTree",
    "RecordBatch",
    "Schema",
    "StreamGenerator",
    "TPCDSGenerator",
    "ThresholdPolicy",
    "TreeConfig",
    "TreeProfiler",
    "VOLAPCluster",
    "__version__",
    "drilldown_path",
    "full_query",
    "pivot",
    "rollup",
    "query_from_levels",
    "synthetic_schema",
    "tpcds_schema",
]
