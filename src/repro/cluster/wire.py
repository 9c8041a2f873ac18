"""Wire shapes of the cluster layer: every message kind, declared once.

Shard bounding keys -- "either a Minimum Bounding Rectangle (MBR, one
box) or Minimum Describing Subset (MDS, multiple boxes)" (paper Section
III-A) -- serialise to plain tuples so they survive the Zookeeper
stand-in and message payloads.  Bulk record payloads (shard blobs,
handed-off insertion queues) travel as columnar frames
(:mod:`repro.olap.colframe`) through :func:`batch_to_wire` /
:func:`batch_from_wire`, so every bulk transfer is charged its true
bytes-on-the-wire size.

Every message kind has one ``NamedTuple`` declaration below, and
:data:`MESSAGES` maps each kind to it.  Handlers read payloads by field
name, and :func:`repro.runtime.frames.wire_size` sizes any payload from
its declaration's annotations alone (the rule is stated there).  Kinds
share a declaration only where the fields mean the same thing:
:class:`ShardOpReply` answers every shard op, :class:`ShardNotice` is
every one-shard notice.

The kinds that carry rows, and the three that only the ``mp`` worker
pipe carries (``install_shard``, ``barrier``, ``barrier_ack``), are
:data:`PAYLOADS`: their ``np.ndarray`` fields *are* the wire columns --
names, order, dtypes, shapes -- so :mod:`repro.runtime.frames` encodes
and decodes them from the declaration, and rows become arrays once,
where a batch is born.
``reply_to`` rides the envelope's reply slot; fields annotated
``object`` -- ``ctx`` (one ``SpanContext`` per row, ``None`` with
tracing off), the sender handles of the two worker-to-worker row kinds,
the ``Query`` objects of a ``client_query_batch`` -- are never encoded.
An op id of ``0`` means "none".
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from ..core.aggregates import Aggregate
from ..olap.colframe import decode_batch, encode_batch
from ..olap.keys import Box
from ..olap.mds import MDS
from ..olap.records import RecordBatch
from .transport import Entity

__all__ = [
    "key_to_wire",
    "key_from_wire",
    "batch_to_wire",
    "batch_from_wire",
    "shard_to_wire",
    "shard_from_wire",
    "BoundingKey",
    "i64",
    "f64",
    "PAYLOADS",
    "ClientInsertBatch", "InsertBatch", "InsertBatchAck", "InsertDoneBatch",
    "BulkInsert", "BulkAck", "QueryBatch", "QueryResultBatch",
    "ReplicaBatch", "PrimaryHandoff", "InstallShard", "Barrier", "BarrierAck",
    "MESSAGES",
    "SHARD_OPS",
    "SplitShard", "MigrateShard", "RestoreShard", "ReplicateShard",
    "PromoteShard", "ShardRequest", "ShardOpReply", "ShardNotice", "MigrateIn",
    "MigrateReady", "QueueTransfer",
    "ReplicaInstall", "ReplicaAck", "ReplicaRemove", "RollupSync", "RollupCells",
    "ClientQueryBatch", "QueryDone", "InsertFailed",
]

BoundingKey = Union[Box, MDS]


def i64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def f64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class ClientInsertBatch(NamedTuple):
    """client -> server: a session's buffered inserts."""

    o: np.ndarray  # int64 (n,): op id
    c: np.ndarray  # int64 (n, d): coords
    v: np.ndarray  # float64 (n,): measure
    reply_to: object
    ctx: object = None


class InsertBatch(NamedTuple):
    """server -> worker: the rows of client batches routed to one worker."""

    x: np.ndarray  # int64 (n, 3): shard, server token, op id
    c: np.ndarray  # int64 (n, d): coords
    v: np.ndarray  # float64 (n,): measure
    reply_to: object
    ctx: object = None


class InsertBatchAck(NamedTuple):
    """worker -> server: per-row outcome of one ``insert_batch``."""

    a: np.ndarray  # int64 (k,): acked tokens
    n: np.ndarray  # int64 (j, 2): nacked (stale route) token, shard
    m: np.ndarray  # int64 (1,): worker id


class InsertDoneBatch(NamedTuple):
    """server -> client: completed inserts."""

    o: np.ndarray  # int64 (n,): op id


class BulkInsert(NamedTuple):
    """facade -> worker: one shard's chunk of a bulk load."""

    m: np.ndarray  # int64 (2,): shard, dedup token
    c: np.ndarray  # int64 (n, d): coords
    v: np.ndarray  # float64 (n,): measure
    reply_to: object


class BulkAck(NamedTuple):
    """worker -> facade: one ``bulk_insert`` applied."""

    m: np.ndarray  # int64 (2,): dedup token, worker id
    u: np.ndarray  # int64 (k,): rows of the chunk no shard here holds


class QueryBatch(NamedTuple):
    """server -> worker: one entry per (query, this worker's shards)."""

    x: np.ndarray  # int64 (n, 2 + 2d): token, shard count, box lo, box hi
    s: np.ndarray  # int64 (sum of shard counts,): the entries' shard ids
    reply_to: object
    ctx: object = None


class QueryResultBatch(NamedTuple):
    """worker -> server: one partial aggregate per ``query_batch`` entry."""

    x: np.ndarray  # int64 (n, 5): token, count, searched, missing, worker id
    g: np.ndarray  # float64 (n, 3): total, min, max


class ReplicaBatch(NamedTuple):
    """primary -> stream peer: one sequence-numbered batch of applied rows."""

    c: np.ndarray  # int64 (n, d): coords
    v: np.ndarray  # float64 (n,): measure
    o: np.ndarray  # int64 (n,): op id
    m: np.ndarray  # int64 (3,): shard, epoch, seq
    g: np.ndarray  # float64 (1,): creation time on the primary
    primary: object


class PrimaryHandoff(NamedTuple):
    """demoted primary -> new owner: the stream suffix it never acked."""

    c: np.ndarray  # int64 (n, d): coords
    v: np.ndarray  # float64 (n,): measure
    o: np.ndarray  # int64 (n,): op id
    m: np.ndarray  # int64 (1,): shard
    src: object


class InstallShard(NamedTuple):
    """mp facade -> worker process: one bootstrap shard's rows."""

    m: np.ndarray  # int64 (1,): shard
    c: np.ndarray  # int64 (n, d): coords
    v: np.ndarray  # float64 (n,): measure


class Barrier(NamedTuple):
    """mp runtime -> worker process: report once every earlier frame is done."""

    m: np.ndarray  # int64 (1,): token
    reply_to: object


class BarrierAck(NamedTuple):
    """worker process -> its proxy: the counters, current to one ``barrier``."""

    m: np.ndarray  # int64 (3,): token, items, dedup hits
    s: np.ndarray  # int64 (k, 2): shard, rows
    g: np.ndarray  # float64 (1,): CPU seconds of the process


#: message kind -> the declaration of its payload
PAYLOADS: dict[str, type] = {
    "client_insert_batch": ClientInsertBatch,
    "insert_batch": InsertBatch,
    "insert_batch_ack": InsertBatchAck,
    "insert_done_batch": InsertDoneBatch,
    "bulk_insert": BulkInsert,
    "bulk_ack": BulkAck,
    "query_batch": QueryBatch,
    "query_result_batch": QueryResultBatch,
    "replica_batch": ReplicaBatch,
    "primary_handoff": PrimaryHandoff,
    "install_shard": InstallShard,
    "barrier": Barrier,
    "barrier_ack": BarrierAck,
}


# -- the control plane ------------------------------------------------------


class SplitShard(NamedTuple):
    """manager -> worker: split ``shard`` into ``low`` and ``high``."""

    shard: int
    low: int
    high: int
    reply_to: Entity


class MigrateShard(NamedTuple):
    """manager -> source worker: move ``shard`` to worker ``dst``."""

    shard: int
    dst: Entity
    reply_to: Entity


class RestoreShard(NamedTuple):
    """manager -> worker: install a dead worker's shard from its checkpoint."""

    shard: int
    blob: Optional[bytes]  # None: never checkpointed
    reply_to: Entity


class ReplicateShard(NamedTuple):
    """manager -> primary: seed a replica of ``shard`` on ``dst``."""

    shard: int
    dst: Entity
    dst_id: int
    reply_to: Entity


class PromoteShard(NamedTuple):
    """manager -> replica holder: become the primary at ``epoch``."""

    shard: int
    epoch: int
    reply_to: Entity


class ShardRequest(NamedTuple):
    """manager -> worker: ``spill_shard`` and ``rehydrate_shard``."""

    shard: int
    reply_to: Entity


class ShardOpReply(NamedTuple):
    """worker -> manager: ``<op>_done``, ``<op>_failed``; -> server: ``rollup_sync_failed``."""

    shard: int
    worker: int


class ShardNotice(NamedTuple):
    """``migrate_abort``, ``drop_replica``, ``drop_shard``, ``handoff_ack``."""

    shard: int


class MigrateIn(NamedTuple):
    """source -> destination worker: the migrating shard's blob."""

    shard: int
    blob: bytes
    src: Entity
    reply_to: Entity


class MigrateReady(NamedTuple):
    """destination -> source worker: the shard is installed."""

    shard: int
    dst: Entity
    reply_to: Entity


class QueueTransfer(NamedTuple):
    """source -> destination worker: the insertion queue at cut-over."""

    shard: int
    blob: bytes


class ReplicaInstall(NamedTuple):
    """primary -> replica worker: the seed snapshot, current to ``head``."""

    shard: int
    epoch: int
    head: int
    blob: bytes
    primary: Entity
    reply_to: Entity


class ReplicaAck(NamedTuple):
    """stream peer -> primary: every batch up to ``frontier`` arrived."""

    shard: int
    epoch: int
    frontier: int
    peer: int


class ReplicaRemove(NamedTuple):
    """-> primary: stop streaming ``shard`` to subscriber ``peer``."""

    shard: int
    peer: int


class RollupSync(NamedTuple):
    """server -> primary: cube slabs for ``keys``, and subscribe ``peer``."""

    shard: int
    peer: int
    keys: list
    reply_to: Entity


class RollupCells(NamedTuple):
    """primary -> server: ``(cube key, slab)`` pairs current to ``head``."""

    shard: int
    epoch: int
    head: int
    pairs: list
    worker: int


class ClientQueryBatch(NamedTuple):
    """client -> server: a session's buffered queries."""

    x: np.ndarray  # int64 (n, 1 + 2d): op id, box lo, box hi
    g: np.ndarray  # float64 (n, 2): coverage, staleness budget (nan: none)
    queries: object  # the ``Query`` objects the columns describe
    reply_to: Entity
    ctx: object = None


class QueryDone(NamedTuple):
    """server -> client: one query's merged answer."""

    op_id: int
    submit_time: float
    agg: Aggregate
    searched: int
    coverage: float
    achieved: float
    staleness: float
    source: str


class InsertFailed(NamedTuple):
    """server -> client: an insert that ran out of retries."""

    op_id: int


#: manager op kind -> the declaration of its ``<kind>_shard`` request
SHARD_OPS: dict[str, type] = {
    "split": SplitShard,
    "migrate": MigrateShard,
    "restore": RestoreShard,
    "replicate": ReplicateShard,
    "promote": PromoteShard,
    "spill": ShardRequest,
    "rehydrate": ShardRequest,
}

#: every message kind -> the declaration of its payload
MESSAGES: dict[str, type] = {
    **PAYLOADS,
    **{f"{op}_shard": cls for op, cls in SHARD_OPS.items()},
    **{
        f"{op}_{outcome}": ShardOpReply
        for op in SHARD_OPS
        for outcome in ("done", "failed")
        if (op, outcome) != ("restore", "failed")
    },
    "rollup_sync_failed": ShardOpReply,
    "migrate_abort": ShardNotice,
    "drop_replica": ShardNotice,
    "drop_shard": ShardNotice,
    "handoff_ack": ShardNotice,
    "migrate_in": MigrateIn,
    "migrate_ready": MigrateReady,
    "queue_transfer": QueueTransfer,
    "replica_install": ReplicaInstall,
    "replica_ack": ReplicaAck,
    "replica_remove": ReplicaRemove,
    "rollup_sync": RollupSync,
    "rollup_cells": RollupCells,
    "client_query_batch": ClientQueryBatch,
    "query_done": QueryDone,
    "insert_failed": InsertFailed,
}


def batch_to_wire(batch: RecordBatch, *, compress: bool = True) -> bytes:
    """Encode a record batch as column-frame wire bytes.

    ``len()`` of the result is the message size to charge the transport
    -- unlike the old tuple payloads there is no estimated per-row
    constant; the frame *is* the wire format.
    """
    return encode_batch(batch, compress=compress)


def batch_from_wire(blob: bytes) -> RecordBatch:
    """Decode wire bytes back into a record batch (v2 frame or legacy v1)."""
    return decode_batch(blob)


def shard_to_wire(store) -> bytes:
    """Encode a whole shard store as one colframe blob.

    This is the *single* shard blob format: checkpoints, failover
    restores, migration transfers, replica seeds, and residency spills
    all pass through here (via :class:`repro.cluster.storage.ShardStorage`),
    so a blob written by any path can be read by every other.
    """
    return store.serialize()


def shard_from_wire(store_cls, schema, blob: bytes, config) -> object:
    """Decode a shard blob produced by :func:`shard_to_wire` back into a
    live shard store of ``store_cls``."""
    return store_cls.deserialize(schema, blob, config)


def key_to_wire(key: BoundingKey) -> tuple:
    """Encode a bounding key with a kind tag."""
    if isinstance(key, Box):
        return ("mbr", key.to_tuple())
    if isinstance(key, MDS):
        return ("mds", key.to_tuple(), key.max_intervals)
    raise TypeError(f"not a bounding key: {type(key)!r}")


def key_from_wire(wire: tuple) -> BoundingKey:
    """Decode a bounding key produced by :func:`key_to_wire`."""
    kind = wire[0]
    if kind == "mbr":
        return Box.from_tuple(wire[1])
    if kind == "mds":
        return MDS([list(ivs) for ivs in wire[1]], max_intervals=wire[2])
    raise ValueError(f"unknown key kind {kind!r}")
