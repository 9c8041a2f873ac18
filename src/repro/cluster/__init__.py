"""The distributed VOLAP system (simulated substrate; see DESIGN.md)."""

from ..obs import MetricsRegistry, Observability
from .balancer import (
    BalancerPolicy,
    MemoryPressurePolicy,
    MigrateAction,
    PlanAction,
    RehydrateAction,
    SpillAction,
    SplitAction,
    ThresholdPolicy,
    WorkerView,
)
from .client import ClientSession
from .cluster import ClusterConfig, VOLAPCluster
from .router import QueryResult, QueryRouter, RollupConfig
from .cost import CostModel
from .faults import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from .image import LocalImage, ShardInfo
from .lifecycle import ShardOp, ShardOpMachine
from .manager import Manager
from .server import Server
from .simclock import ServicePool, SimClock
from .stats import ClusterStats, OpRecord
from .storage import HOT, WARM, ColdEntry, ShardStorage
from .transport import Entity, LatencyModel, Message, Transport
from .wire import key_from_wire, key_to_wire
from .transfer import ShardTransfer
from .worker import Worker
from .zookeeper import Zookeeper

__all__ = [
    "BalancerPolicy",
    "QueryResult",
    "QueryRouter",
    "RollupConfig",
    "CheckpointStore",
    "MemoryPressurePolicy",
    "MigrateAction",
    "PlanAction",
    "RehydrateAction",
    "SpillAction",
    "ShardOp",
    "ShardOpMachine",
    "ShardStorage",
    "ShardTransfer",
    "SplitAction",
    "ColdEntry",
    "HOT",
    "WARM",
    "ThresholdPolicy",
    "WorkerView",
    "ClientSession",
    "ClusterConfig",
    "ClusterStats",
    "CostModel",
    "Entity",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "LatencyModel",
    "LocalImage",
    "Manager",
    "Message",
    "MetricsRegistry",
    "Observability",
    "OpRecord",
    "Server",
    "ServicePool",
    "ShardInfo",
    "SimClock",
    "Transport",
    "VOLAPCluster",
    "Worker",
    "key_from_wire",
    "key_to_wire",
    "Zookeeper",
]
