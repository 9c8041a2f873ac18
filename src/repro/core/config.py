"""Tree configuration and per-operation statistics.

No setting concerns threads: every tree holds one lock for each whole
call (:attr:`~repro.core.base.BaseTree.lock`), whatever its config.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TreeConfig", "OpStats"]


@dataclass(frozen=True)
class TreeConfig:
    """Configuration shared by all shard data structures.

    Attributes
    ----------
    leaf_capacity:
        Maximum items per leaf before a split.
    fanout:
        Maximum children per directory node before a split.
    key_kind:
        ``"mds"`` (interval-set keys, the PDC default) or ``"mbr"``
        (single-interval keys).  Paper Section III-D: every tree variant
        exists in both flavours.
    insert_policy:
        For geometric trees: ``"least_overlap"`` (VOLAP's choice; the
        child whose expansion creates the least overlap with siblings)
        or ``"least_enlargement"`` (the R-tree's: the child whose grown
        key has the least volume -- not Guttman's least volume added).
    split_policy:
        For Hilbert trees' per-row ``insert``: ``"least_overlap"`` (scan
        all split positions, pick the one minimising child overlap -- the
        Hilbert PDC rule) or ``"middle"`` (even halves, the plain Hilbert
        R-tree rule).  ``insert_batch`` does not cut: it repacks an
        overfull node at 3/4 fill, whatever this says.
    cache_aggregates:
        Keep per-node cached aggregates (disable only for ablation).
    """

    leaf_capacity: int = 64
    fanout: int = 16
    key_kind: str = "mds"
    insert_policy: str = "least_overlap"
    split_policy: str = "least_overlap"
    cache_aggregates: bool = True
    #: Apply the Fig. 3 hierarchical-ID expansion before Hilbert mapping.
    #: True for the Hilbert PDC tree; False reproduces the plain Hilbert
    #: R-tree, whose curve sees raw concatenated ids.
    hilbert_expand_ids: bool = True

    def __post_init__(self) -> None:
        if self.leaf_capacity < 2:
            raise ValueError("leaf_capacity must be >= 2")
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        if self.key_kind not in ("mds", "mbr"):
            raise ValueError(f"unknown key_kind {self.key_kind!r}")
        if self.insert_policy not in ("least_overlap", "least_enlargement"):
            raise ValueError(f"unknown insert_policy {self.insert_policy!r}")
        if self.split_policy not in ("least_overlap", "middle"):
            raise ValueError(f"unknown split_policy {self.split_policy!r}")


@dataclass
class OpStats:
    """Work counters for a single insert or query operation.

    These drive both the coverage analysis (paper Fig. 9) and the
    cluster simulator's service-time model: virtual execution time is a
    linear function of nodes visited and items scanned.
    """

    nodes_visited: int = 0
    leaves_visited: int = 0
    items_scanned: int = 0
    agg_hits: int = 0
    splits: int = 0
    #: overfull leaves a Hilbert ``insert_batch`` repacked (per-row
    #: inserts cut them in two instead, counted in ``splits`` only)
    repacks: int = 0
    key_expansions: int = 0

    def merge(self, other: "OpStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.leaves_visited += other.leaves_visited
        self.items_scanned += other.items_scanned
        self.agg_hits += other.agg_hits
        self.splits += other.splits
        self.repacks += other.repacks
        self.key_expansions += other.key_expansions

    @property
    def work(self) -> int:
        """Scalar work estimate used by the simulator cost model."""
        return self.nodes_visited + self.items_scanned // 8 + 4 * self.splits
