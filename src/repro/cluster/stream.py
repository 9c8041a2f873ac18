"""The replication stream protocol, once: sender log, receiver cursor, lag.

A shard's primary tees every applied insert batch onto a per-epoch,
sequence-numbered stream.  This module is the whole protocol and nothing
else -- no clock, transport or Zookeeper; callers pass ``now`` in and do
the sending -- so the worker's primary side, the worker's replica side
and the server's rollup router all run the same three pieces:

* :class:`SenderLog` (primary): the epoch, the head sequence number, the
  batches retained until every subscribed peer has cumulatively
  acknowledged them, and the peers with their acks.
* :class:`Cursor` (any receiver): the epoch fence, duplicate detection,
  the contiguous applied frontier and its watermark -- the primary-side
  creation time of the newest batch in that contiguous prefix.
* :func:`lag`: how stale a receiver is, from its position and the
  primary's published head.

The two znode values the stream publishes are named here too; they are
``NamedTuple``\\ s, so they stay plain tuples in Zookeeper: one writer
(the worker's replication component), every reader by field name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

__all__ = [
    "Watermark", "Head", "lag", "SenderLog", "Cursor",
    "NEW", "DUPLICATE", "STALE", "FENCED",
]


class Watermark(NamedTuple):
    """``/replicas/<shard>/<worker>``: a replica's applied position,
    piggybacked on its heartbeat."""

    epoch: int
    frontier: int
    #: creation time (on the primary) of the batch at ``frontier``
    wm_time: float
    beat_time: float


class Head(NamedTuple):
    """``/repl/heads/<shard>``: the primary's stream head at its last
    heartbeat."""

    epoch: int
    seq: int
    beat_time: float


def lag(pos, head: Optional[Head], now: float) -> float:
    """Staleness of a receiver at ``pos`` (a :class:`Cursor` or a
    :class:`Watermark`: anything with ``epoch``, ``frontier`` and
    ``wm_time``).  One that has caught the published head is as fresh
    as the head's beat; otherwise it is as stale as the newest batch of
    its contiguous prefix."""
    if head is not None and head.epoch == pos.epoch and pos.frontier >= head.seq:
        return max(0.0, now - head.beat_time)
    return max(0.0, now - pos.wm_time)


# -- sender ------------------------------------------------------------------


@dataclass
class _Batch:
    rows: Any  # opaque to the protocol: whatever the caller streams
    t_created: float
    last_sent: float


@dataclass
class _Peer:
    entity: Any  # where the caller sends this peer's batches
    acked: int  # cumulative: every seq <= acked arrived


@dataclass
class SenderLog:
    """Primary-side state of one shard's stream at one epoch."""

    epoch: int
    head: int = 0
    batches: dict[int, _Batch] = field(default_factory=dict)
    peers: dict[int, _Peer] = field(default_factory=dict)

    def subscribe(self, peer_id: int, entity) -> int:
        """Register a peer whose snapshot covers everything up to the
        current head; returns that head.  Batches appended from now on
        are retained until it acknowledges them."""
        self.peers[peer_id] = _Peer(entity, self.head)
        return self.head

    def unsubscribe(self, peer_id: int) -> None:
        self.peers.pop(peer_id, None)
        self.trim()

    def ack(self, peer_id: int, frontier: int) -> None:
        """Cumulative acknowledgement (late or reordered acks never
        move a peer backwards); unknown peers are ignored."""
        peer = self.peers.get(peer_id)
        if peer is not None:
            peer.acked = max(peer.acked, frontier)
            self.trim()

    def append(self, rows, now: float) -> int:
        """Retain ``rows`` as the next batch; returns its seq."""
        self.head += 1
        self.batches[self.head] = _Batch(rows, now, now)
        return self.head

    def trim(self) -> None:
        """Shed every batch the slowest peer has acknowledged (all of
        them, up to the head, when nobody is subscribed)."""
        floor = min((p.acked for p in self.peers.values()), default=self.head)
        for seq in [s for s in self.batches if s <= floor]:
            del self.batches[seq]

    def due(self, now: float, retry: float) -> list[tuple[int, list]]:
        """Trim, then list ``(seq, entities still behind it)`` for every
        retained batch last sent at least ``retry`` ago, stamping each
        as re-sent at ``now``."""
        self.trim()
        out = []
        for seq in sorted(self.batches):
            batch = self.batches[seq]
            if now - batch.last_sent < retry - 1e-12:
                continue
            behind = [p.entity for p in self.peers.values() if p.acked < seq]
            if behind:
                batch.last_sent = now
                out.append((seq, behind))
        return out

    def unacked(self, peer_id: int) -> list:
        """The rows of every retained batch ``peer_id`` has not
        acknowledged, in seq order (everything retained, for a peer
        this log never knew)."""
        peer = self.peers.get(peer_id)
        acked = peer.acked if peer is not None else 0
        return [self.batches[s].rows for s in sorted(self.batches) if s > acked]


# -- receiver ----------------------------------------------------------------

#: verdicts of :meth:`Cursor.offer`
NEW = "new"  # first sight: apply the rows (the cursor has advanced)
DUPLICATE = "duplicate"  # seen before: re-acknowledge, do not apply
STALE = "stale"  # from an older epoch: refuse
FENCED = "fenced"  # from a newer epoch: this cursor's lineage is dead


class Cursor:
    """Receiver-side position in one shard's stream."""

    def __init__(self, epoch: int, frontier: int, now: float):
        self.epoch = epoch
        #: every seq <= frontier has been applied
        self.frontier = frontier
        #: creation time of the batch at the frontier (the watermark);
        #: a fresh snapshot is as new as its install
        self.wm_time = now
        #: seqs applied ahead of the frontier -> their creation times
        self._ahead: dict[int, float] = {}

    def offer(self, epoch: int, seq: int, t_created: float) -> str:
        """Classify one arriving batch and, when it is :data:`NEW`,
        record it: the frontier advances over the contiguous prefix and
        the watermark follows it."""
        if epoch != self.epoch:
            return STALE if epoch < self.epoch else FENCED
        if seq <= self.frontier or seq in self._ahead:
            return DUPLICATE
        self._ahead[seq] = t_created
        while self.frontier + 1 in self._ahead:
            self.frontier += 1
            self.wm_time = self._ahead.pop(self.frontier)
        return NEW

    def applied_after(self, seq: int) -> list[int]:
        """Every seq past ``seq`` this cursor has applied: the
        contiguous run up to the frontier, then the out-of-order ones."""
        return [*range(seq + 1, self.frontier + 1), *sorted(self._ahead)]

    def watermark(self, now: float) -> Watermark:
        return Watermark(self.epoch, self.frontier, self.wm_time, now)
