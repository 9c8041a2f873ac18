"""Tree profiler: per-operation index work, at shard granularity.

The trees already measure their own work (``OpStats``: nodes visited,
directory-aggregate cache hits, leaves scanned, splits, repacks, key
expansions) and every store op returns them -- this collects those
counters per operation instead of discarding them:
``prof.record("insert", tree.insert(c, m))``.  The trees themselves
carry no hook, so unprofiled trees pay nothing.

Inside a cluster the workers feed the records from the stats they
already hold, so ``VOLAPCluster.observe()`` profiles every shard
without touching each tree instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TreeOpProfile", "TreeProfiler"]


@dataclass(frozen=True)
class TreeOpProfile:
    """Work counters of one profiled tree operation."""

    kind: str  # "insert" | "insert_batch" | "query" | "query_batch"
    rows: int  # records inserted / boxes answered
    nodes_visited: int
    leaves_visited: int
    items_scanned: int
    agg_hits: int
    splits: int
    repacks: int
    key_expansions: int


class TreeProfiler:
    """Accumulates :class:`TreeOpProfile` records (bounded ring).

    With a registry attached, every record also feeds the
    ``volap_tree_*`` counters and the ``volap_tree_nodes_per_op``
    histogram, labelled by operation kind.
    """

    def __init__(self, registry=None, keep: int = 100_000):
        self.registry = registry
        self.keep = keep
        self.records: list[TreeOpProfile] = []
        self.dropped = 0
        self.ops = 0

    def record(self, kind: str, stats, rows: int = 1) -> None:
        """Record one operation's ``OpStats``; cheap enough for hot paths."""
        self.ops += 1
        prof = TreeOpProfile(
            kind=kind,
            rows=rows,
            nodes_visited=stats.nodes_visited,
            leaves_visited=stats.leaves_visited,
            items_scanned=stats.items_scanned,
            agg_hits=stats.agg_hits,
            splits=stats.splits,
            repacks=getattr(stats, "repacks", 0),
            key_expansions=stats.key_expansions,
        )
        if len(self.records) < self.keep:
            self.records.append(prof)
        else:
            self.dropped += 1
        r = self.registry
        if r is not None:
            r.counter("volap_tree_ops_total", op=kind).inc()
            r.counter("volap_tree_rows_total", op=kind).inc(rows)
            r.counter(
                "volap_tree_nodes_visited_total", op=kind
            ).inc(stats.nodes_visited)
            r.counter(
                "volap_tree_agg_hits_total", op=kind
            ).inc(stats.agg_hits)
            r.counter(
                "volap_tree_leaves_visited_total", op=kind
            ).inc(stats.leaves_visited)
            r.counter(
                "volap_tree_items_scanned_total", op=kind
            ).inc(stats.items_scanned)
            if stats.splits:
                r.counter("volap_tree_splits_total", op=kind).inc(stats.splits)
            repacks = getattr(stats, "repacks", 0)
            if repacks:
                r.counter("volap_tree_repacks_total", op=kind).inc(repacks)
            from .metrics import DEFAULT_COUNT_BUCKETS

            r.histogram(
                "volap_tree_nodes_per_op",
                buckets=DEFAULT_COUNT_BUCKETS,
                op=kind,
            ).observe(stats.nodes_visited)

    # -- analysis ----------------------------------------------------------

    def select(self, kind: Optional[str] = None) -> list[TreeOpProfile]:
        if kind is None:
            return list(self.records)
        return [p for p in self.records if p.kind == kind]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-kind totals and means over the retained records."""
        out: dict[str, dict[str, float]] = {}
        for kind in sorted({p.kind for p in self.records}):
            recs = self.select(kind)
            n = len(recs)
            total_nodes = sum(p.nodes_visited for p in recs)
            total_hits = sum(p.agg_hits for p in recs)
            total_leaves = sum(p.leaves_visited for p in recs)
            out[kind] = {
                "ops": n,
                "rows": sum(p.rows for p in recs),
                "nodes_visited": total_nodes,
                "nodes_per_op": total_nodes / n if n else 0.0,
                "agg_hits": total_hits,
                "leaves_visited": total_leaves,
                "leaf_scan_fraction": (
                    total_leaves / (total_hits + total_leaves)
                    if total_hits + total_leaves
                    else 0.0
                ),
                "items_scanned": sum(p.items_scanned for p in recs),
                "splits": sum(p.splits for p in recs),
                "repacks": sum(p.repacks for p in recs),
                "key_expansions": sum(p.key_expansions for p in recs),
            }
        return out
