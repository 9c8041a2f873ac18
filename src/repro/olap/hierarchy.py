"""Dimension hierarchies and hierarchical value encoding.

VOLAP treats every dimension as a *hierarchy*: an ordered list of levels
from the coarsest (e.g. ``Country``) down to the finest (e.g. ``City``).
A concrete dimension value is a *path* through the hierarchy -- one local
id per level.  Paths are encoded into a single integer by concatenating
the per-level ids bitwise, most-significant level first.  This encoding
has the crucial property that every hierarchy prefix (a value expressed
at a coarser level) corresponds to a *contiguous range* of leaf-level
encoded ids, which is what lets interval-based keys (MBRs) and
interval-set keys (MDSs) represent hierarchical regions exactly.

Example
-------
>>> h = Hierarchy("date", [Level("year", 8), Level("month", 12), Level("day", 31)])
>>> v = h.encode((3, 11, 30))
>>> h.decode(v)
(3, 11, 30)
>>> lo, hi = h.prefix_range(1, h.encode_prefix((3,)))   # all of year 3
>>> lo <= v <= hi
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def bits_for(fanout: int) -> int:
    """Number of bits needed to encode local ids in ``[0, fanout)``."""
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    return max(1, (fanout - 1).bit_length())


@dataclass(frozen=True)
class Level:
    """One level of a dimension hierarchy.

    Parameters
    ----------
    name:
        Human-readable level name (e.g. ``"month"``).
    fanout:
        Maximum number of distinct child values under a single parent
        value.  Local ids at this level are integers in ``[0, fanout)``.
    """

    name: str
    fanout: int

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"Level {self.name!r}: fanout must be >= 1")

    @property
    def bits(self) -> int:
        """Bits used to encode one local id at this level."""
        return bits_for(self.fanout)


class Hierarchy:
    """An ordered list of levels, coarsest first, with path encoding.

    The *leaf id space* of the hierarchy is ``[0, 2**total_bits)``; a full
    path (one id per level) maps to a single integer in this space.  A
    partial path (prefix) maps to a contiguous range.
    """

    __slots__ = (
        "name",
        "levels",
        "_suffix_bits",
        "_prefix_bits",
        "total_bits",
        "num_levels",
    )

    def __init__(self, name: str, levels: Sequence[Level]):
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        self.name = name
        self.levels: tuple[Level, ...] = tuple(levels)
        self.num_levels = len(self.levels)
        # _suffix_bits[i] = bits below level i (levels i+1 .. end)
        suffix = [0] * (self.num_levels + 1)
        for i in range(self.num_levels - 1, -1, -1):
            suffix[i] = suffix[i + 1] + self.levels[i].bits
        self.total_bits = suffix[0]
        self._suffix_bits = tuple(suffix[1:] + [0])  # bits strictly below level i
        # _prefix_bits[k] = total bits of the first k levels
        pref = [0]
        for lvl in self.levels:
            pref.append(pref[-1] + lvl.bits)
        self._prefix_bits = tuple(pref)
        if self.total_bits > 62:
            raise ValueError(
                f"hierarchy {name!r} needs {self.total_bits} bits; "
                "int64-backed storage supports at most 62"
            )

    # -- encoding ---------------------------------------------------------

    def encode(self, path: Sequence[int]) -> int:
        """Encode a full path (one local id per level) to a leaf id."""
        if len(path) != self.num_levels:
            raise ValueError(
                f"path length {len(path)} != number of levels {self.num_levels}"
            )
        return self.encode_prefix(path)

    def encode_prefix(self, path: Sequence[int]) -> int:
        """Encode a partial path to a prefix integer (not shifted to leaf)."""
        v = 0
        for lvl, pid in zip(self.levels, path):
            if not 0 <= pid < lvl.fanout:
                raise ValueError(
                    f"id {pid} out of range [0, {lvl.fanout}) at level {lvl.name!r}"
                )
            v = (v << lvl.bits) | pid
        return v

    def decode(self, value: int) -> tuple[int, ...]:
        """Decode a leaf id back into a full path."""
        if not 0 <= value < (1 << self.total_bits):
            raise ValueError(f"leaf id {value} out of range")
        out = []
        for i, lvl in enumerate(self.levels):
            below = self._suffix_bits[i]
            out.append((value >> below) & ((1 << lvl.bits) - 1))
        return tuple(out)

    # -- ranges -----------------------------------------------------------

    def suffix_bits(self, depth: int) -> int:
        """Bits strictly below a prefix of ``depth`` levels."""
        if not 1 <= depth <= self.num_levels:
            raise ValueError(f"depth must be in [1, {self.num_levels}]")
        return self.total_bits - self._prefix_bits[depth]

    def prefix_range(self, depth: int, prefix: int) -> tuple[int, int]:
        """Leaf-id range ``[lo, hi]`` covered by a ``depth``-level prefix."""
        below = self.suffix_bits(depth)
        lo = prefix << below
        hi = lo + (1 << below) - 1
        return lo, hi

    def prefix_of(self, value: int, depth: int) -> int:
        """The ``depth``-level prefix of a leaf id."""
        return value >> self.suffix_bits(depth)

    def level_names(self) -> tuple[str, ...]:
        return tuple(lvl.name for lvl in self.levels)

    @property
    def leaf_cardinality(self) -> int:
        """Size of the leaf id space (``2**total_bits``)."""
        return 1 << self.total_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lv = ", ".join(f"{l.name}:{l.fanout}" for l in self.levels)
        return f"Hierarchy({self.name!r}, [{lv}], bits={self.total_bits})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hierarchy)
            and self.name == other.name
            and self.levels == other.levels
        )

    def __hash__(self) -> int:
        return hash((self.name, self.levels))


@dataclass(frozen=True)
class Dimension:
    """A named dimension backed by a :class:`Hierarchy`."""

    name: str
    hierarchy: Hierarchy

    @property
    def total_bits(self) -> int:
        return self.hierarchy.total_bits

    @property
    def num_levels(self) -> int:
        return self.hierarchy.num_levels


def flat_dimension(name: str, cardinality: int) -> Dimension:
    """A dimension with a single level (no hierarchy structure)."""
    return Dimension(name, Hierarchy(name, [Level(name, cardinality)]))


def uniform_dimension(name: str, fanouts: Iterable[int]) -> Dimension:
    """A dimension whose levels have the given fanouts, coarsest first."""
    levels = [Level(f"{name}_l{i}", f) for i, f in enumerate(fanouts)]
    return Dimension(name, Hierarchy(name, levels))
