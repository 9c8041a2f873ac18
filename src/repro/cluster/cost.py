"""Virtual service-time model.

Converts measured data-structure work (``OpStats``) into virtual
execution times.  Constants are calibrated so a simulated 20-worker /
2-server cluster lands in the paper's regime (about 50k point inserts/s
plus about 20k aggregate queries/s under a mixed load, bulk ingestion
several times faster than point insertion); experiment *shapes* come
from the real index and protocol code, the constants only set the
scale.  EXPERIMENTS.md records both the paper's and the simulated
absolute numbers for every figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import OpStats

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Service-time constants (seconds)."""

    # worker-side costs
    insert_base: float = 300e-6
    query_base: float = 400e-6
    work_unit: float = 3e-6  # per OpStats.work unit (node visit etc.)
    # per item during bulk ingestion; calibrated so a p=20 cluster bulk
    # ingests several hundred k items/s, ~an order of magnitude above
    # point insertion (the paper's 400k/s vs 50k/s gap)
    bulk_item: float = 15e-6
    #: per item in an *online* insert message: pricier than offline bulk
    #: packing (the tree still descends and locks the nodes the batch
    #: touches) but far below a full per-message dispatch
    batch_item: float = 30e-6
    #: per query in a query message: the shared vectorized descent
    #: amortizes dispatch and pruning, so each extra query costs well
    #: below a full ``query_base`` dispatch
    batch_query_item: float = 120e-6
    split_item: float = 4e-6  # per item when splitting a shard
    serialize_item: float = 1e-6
    deserialize_item: float = 2e-6

    # server-side costs
    route_base: float = 250e-6
    route_node: float = 2e-6  # per local-image node visited
    merge_shard: float = 20e-6  # per worker response merged

    # rollup-tier costs
    #: per row scanned when a worker seeds cube slabs from a shard
    rollup_seed_item: float = 0.5e-6
    #: per row folded into resident slabs from a stream batch
    rollup_apply_item: float = 1e-6
    #: per cube cell sliced when a query is answered from the tier
    rollup_cell: float = 0.05e-6
    #: base of a cube-served answer: dispatch, cube match, per-shard
    #: freshness scan, slab slice + merge -- all in server memory (a
    #: pure hit skips the fan-out planner, so it never pays route_base;
    #: compare merge_shard, the per-response merge on the tree path)
    rollup_hit_base: float = 30e-6

    # -- worker ----------------------------------------------------------

    def query_batch_time(self, queries: int, stats: OpStats) -> float:
        """One ``query_batch`` message: one base dispatch for the whole
        message, a per-query floor, plus the measured structural work
        of the descents."""
        return (
            self.query_base
            + self.batch_query_item * queries
            + self.work_unit * stats.work
        )

    def bulk_time(self, items: int) -> float:
        return self.insert_base + self.bulk_item * items

    def insert_batch_time(self, items: int, stats: OpStats) -> float:
        """One ``insert_batch`` message: one base dispatch for the whole
        message, a per-item floor, plus the run-amortised structural
        work the tree actually measured."""
        return (
            self.insert_base
            + self.batch_item * items
            + self.work_unit * stats.work
        )

    def split_time(self, items: int) -> float:
        return self.insert_base + self.split_item * items

    def serialize_time(self, items: int) -> float:
        return self.insert_base + self.serialize_item * items

    def deserialize_time(self, items: int) -> float:
        return self.insert_base + self.deserialize_item * items

    def replicate_apply_time(self, items: int, stats: OpStats) -> float:
        """Applying a teed replication batch on a replica: the same
        batched-insert work as the primary paid, minus the per-row
        dedup/route dispatch (rows arrive pre-resolved)."""
        return self.batch_item * items + self.work_unit * stats.work

    def promote_time(self) -> float:
        """Replica promotion is a metadata flip -- re-tag the in-memory
        store and publish the znode -- so it costs one base dispatch,
        not a deserialization."""
        return self.insert_base

    def spill_time(self, items: int) -> float:
        """Spilling a HOT shard WARM: encode the colframe blob and
        release the columns.  Serialize-shaped -- spill *is* a
        checkpoint write, there is no second format."""
        return self.serialize_time(items)

    def rehydrate_time(self, items: int) -> float:
        """Pulling a WARM shard back HOT: decode the spilled blob and
        rebuild the tree.  Deserialize-shaped; charged to the op that
        touched the shard when rehydration is lazy (read/insert path)."""
        return self.deserialize_time(items)

    # -- server -----------------------------------------------------------

    def route_time(self, image_nodes: int) -> float:
        return self.route_base + self.route_node * image_nodes

    def merge_time(self, responses: int) -> float:
        return self.merge_shard * max(1, responses)

    # -- rollup tier -------------------------------------------------------

    def rollup_seed_time(self, rows: int) -> float:
        """Worker-side cube seeding: one vectorized columnar scan of
        the shard (much cheaper per row than a serialize)."""
        return self.insert_base + self.rollup_seed_item * rows

    def rollup_apply_time(self, rows: int) -> float:
        """Server-side fold of one stream batch into resident slabs."""
        return self.merge_shard + self.rollup_apply_item * max(1, rows)

    def rollup_hit_time(self, cells: int) -> float:
        """Answering a query from cube slabs: slice + merge, no worker
        round trip at all -- that absence is the tier's entire win."""
        return self.rollup_hit_base + self.rollup_cell * max(1, cells)
