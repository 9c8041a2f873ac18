"""The replication stream protocol in isolation (no cluster, no clock).

``repro.cluster.stream`` is pure, so a seeded lossy network fits in a
loop: every batch and every ack may be dropped, duplicated or delivered
out of order, retransmits come from :meth:`SenderLog.due`, and the
protocol's invariants are checked after every single delivery.
"""

import random

import pytest

from repro.cluster.stream import (
    DUPLICATE,
    FENCED,
    NEW,
    STALE,
    Cursor,
    Head,
    SenderLog,
    Watermark,
    lag,
)

RETRY = 0.1


def _check_cursor(cursor, start, delivered, created):
    """The frontier is the contiguous prefix of what was delivered and
    the watermark is the creation time of that prefix's last batch."""
    want = start
    while want + 1 in delivered:
        want += 1
    assert cursor.frontier == want
    if want > start:
        assert cursor.wm_time == created[want]
    assert cursor.applied_after(start) == sorted(delivered)


@pytest.mark.parametrize("seed", range(8))
def test_lossy_network_invariants(seed):
    rng = random.Random(seed)
    log = SenderLog(epoch=3)
    peers = {}  # peer id -> (cursor, set of delivered seqs)
    created = {}  # seq -> creation time on the sender
    applied = {pid: [] for pid in (1, 2, 3)}  # rows each peer applied, in order
    in_flight = []  # ("batch", pid, seq) | ("ack", pid, frontier)
    now = 0.0

    def put(item):
        roll = rng.random()
        if roll < 0.2:
            return  # dropped
        in_flight.append(item)
        if roll > 0.85:
            in_flight.append(item)  # duplicated

    for step in range(2000):
        if step >= 300 and not log.batches:
            break  # appends stopped and every peer acknowledged the head
        now += 0.01
        if step in (0, 40, 90):  # peers join at different heads
            pid = len(peers) + 1
            start = log.subscribe(pid, pid)
            peers[pid] = (Cursor(log.epoch, start, now), set(), start)
        if step < 300 and rng.random() < 0.5:
            seq = log.append(f"rows-{log.head + 1}", now)
            assert seq == log.head
            created[seq] = now
            for pid in log.peers:
                put(("batch", pid, seq))
        for seq, behind in log.due(now, RETRY):
            for pid in behind:
                put(("batch", pid, seq))
        rng.shuffle(in_flight)  # reorder
        for _ in range(min(len(in_flight), 12)):
            what, pid, n = in_flight.pop()
            cursor, delivered, start = peers[pid]
            if what == "batch":
                before = cursor.frontier
                verdict = cursor.offer(log.epoch, n, created[n])
                if n <= before or n in delivered:
                    assert verdict == DUPLICATE
                else:
                    assert verdict == NEW
                    delivered.add(n)
                    applied[pid].append(n)
                _check_cursor(cursor, start, delivered, created)
                put(("ack", pid, cursor.frontier))
            else:
                log.ack(pid, n)
            # the log never trims past the slowest peer's ack
            floor = min(p.acked for p in log.peers.values())
            assert set(log.batches) == set(range(floor + 1, log.head + 1))
            # and never forgets what a peer acknowledged
            assert log.peers[pid].acked <= peers[pid][0].frontier

    # the retransmits outlast the loss: everyone converged, the log is empty
    for pid, (cursor, delivered, start) in peers.items():
        assert cursor.frontier == log.head
        assert sorted(applied[pid]) == list(range(start + 1, log.head + 1))
        assert len(applied[pid]) == len(set(applied[pid]))  # exactly once
    assert not log.batches


def test_trims_to_head_without_peers():
    log = SenderLog(epoch=0)
    for i in range(5):
        log.append(i, float(i))
    assert sorted(log.batches) == [1, 2, 3, 4, 5]  # retained until a trim
    log.trim()
    assert not log.batches and log.head == 5
    head = log.subscribe(7, "peer")
    assert head == 5
    log.append("x", 9.0)
    log.unsubscribe(7)  # the last peer leaving sheds everything
    assert not log.batches


def test_due_respects_retry_period_and_acks():
    log = SenderLog(epoch=0)
    log.subscribe(1, "a")
    log.subscribe(2, "b")
    log.append("r1", 0.0)
    log.append("r2", 0.05)
    assert log.due(0.06, RETRY) == []  # nothing is a full period old
    assert log.due(0.1, RETRY) == [(1, ["a", "b"])]
    assert log.due(0.15, RETRY) == [(2, ["a", "b"])]  # seq 1 was just re-sent
    log.ack(1, 2)
    assert log.due(0.3, RETRY) == [(1, ["b"]), (2, ["b"])]
    log.ack(2, 1)
    assert sorted(log.batches) == [2]
    log.ack(2, 0)  # a late, smaller ack never moves a peer backwards
    assert log.peers[2].acked == 1
    log.ack(9, 2)  # unknown peers are ignored
    assert sorted(log.batches) == [2]


def test_unacked_suffix_is_the_handoff_rows():
    log = SenderLog(epoch=2)
    log.subscribe(1, "new-owner")
    log.subscribe(2, "slow")
    for i in range(1, 7):
        log.append(f"rows-{i}", float(i))
    log.ack(1, 4)  # partial: the new owner saw 1..4
    assert log.unacked(1) == ["rows-5", "rows-6"]
    assert log.unacked(2) == [f"rows-{i}" for i in range(1, 7)]
    # a worker this log never streamed to gets everything retained
    log.ack(2, 2)
    assert log.unacked(9) == ["rows-3", "rows-4", "rows-5", "rows-6"]
    log.ack(1, 6)
    assert log.unacked(1) == []


def test_epoch_fence():
    cursor = Cursor(epoch=5, frontier=10, now=1.0)
    assert cursor.offer(4, 11, 2.0) == STALE  # refused
    assert cursor.offer(6, 11, 2.0) == FENCED  # this lineage is dead
    assert (cursor.frontier, cursor.wm_time) == (10, 1.0)  # neither applied
    assert cursor.offer(5, 11, 2.0) == NEW
    assert cursor.offer(5, 11, 2.0) == DUPLICATE
    assert cursor.offer(5, 3, 0.5) == DUPLICATE  # below the seed head
    assert cursor.watermark(3.0) == Watermark(5, 11, 2.0, 3.0)


def test_lag_rule():
    cursor = Cursor(epoch=1, frontier=0, now=0.0)
    cursor.offer(1, 1, 2.0)
    cursor.offer(1, 3, 4.0)  # a gap: the frontier stays at 1
    now = 10.0
    # behind the head: as stale as the contiguous prefix's last batch
    assert lag(cursor, Head(1, 3, 9.5), now) == now - 2.0
    cursor.offer(1, 2, 3.0)
    assert cursor.frontier == 3 and cursor.wm_time == 4.0
    # caught the head: as fresh as the head's beat
    assert lag(cursor, Head(1, 3, 9.5), now) == 0.5
    # no head published, or one from another epoch: watermark age
    assert lag(cursor, None, now) == 6.0
    assert lag(cursor, Head(2, 0, 9.5), now) == 6.0
    # a published watermark reads the same way as a live cursor
    assert lag(cursor.watermark(9.0), Head(1, 3, 9.5), now) == 0.5
    assert lag(cursor, Head(1, 3, 11.0), now) == 0.0  # never negative
