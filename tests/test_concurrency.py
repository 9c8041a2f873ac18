"""Concurrency tests: real threads racing on one tree.

The paper's trees run several threads per node under per-node locks
(Section III-C/D); here each tree call holds the tree's one lock, a
re-entrant lock granted in arrival order, and the paper's threads are
modelled in virtual time.  The GIL removes parallel speedup but not
interleaving, so these tests race inserters, queriers and depth walkers
on one tree: no answer may be torn, no writer starved, no item lost,
and afterwards every invariant must hold.

Every thread is a daemon and a test waits for its threads up to one
shared deadline (:func:`run`), so a deadlock fails that test within
``DEADLINE_S`` instead of hanging the suite.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import HilbertPDCTree, HilbertRTree, PDCTree, RTree, TreeConfig
from repro.olap.keys import Box
from repro.olap.records import RecordBatch
from repro.olap.query import full_query

from .conftest import make_schema, random_batch

THREADED = [HilbertPDCTree, PDCTree]

#: wall-clock budget for all the threads of one test
DEADLINE_S = 120


def thread(target, *args):
    """A daemon thread: one left deadlocked cannot block the exit."""
    return threading.Thread(target=target, args=args, daemon=True)


def run(threads, stop=None, after=()):
    """Start ``after`` and then ``threads``; wait for ``threads``, set
    ``stop``, then wait for ``after`` -- all by one deadline."""
    deadline = time.monotonic() + DEADLINE_S

    def wait(group):
        for t in group:
            t.join(timeout=max(0.0, deadline - time.monotonic()))

    try:
        for t in (*after, *threads):
            t.start()
        wait(threads)
    finally:
        if stop is not None:
            stop.set()
    wait(after)
    assert not any(t.is_alive() for t in (*threads, *after)), "deadlock"


@pytest.mark.parametrize("cls", THREADED)
def test_concurrent_inserts_lose_nothing(cls):
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = cls(schema, config)
    n_threads = 4
    per_thread = 250
    batches = [random_batch(schema, per_thread, seed=i) for i in range(n_threads)]
    errors = []

    def worker(b):
        try:
            for coords, m in b.iter_rows():
                tree.insert(coords, m)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [thread(worker, b) for b in batches]
    run(threads)
    assert not errors
    assert len(tree) == n_threads * per_thread
    tree.validate()
    agg, _ = tree.query(full_query(schema).box)
    assert agg.count == n_threads * per_thread
    expected = sum(float(b.measures.sum()) for b in batches)
    assert agg.total == pytest.approx(expected)


@pytest.mark.parametrize("cls", THREADED)
def test_concurrent_inserts_and_queries(cls):
    """Queries racing with inserts see monotonically growing prefixes."""
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = cls(schema, config)
    batch = random_batch(schema, 600, seed=3)
    box = full_query(schema).box
    stop = threading.Event()
    errors = []
    observed = []

    def inserter():
        try:
            for coords, m in batch.iter_rows():
                tree.insert(coords, m)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()

    def querier():
        try:
            while not stop.is_set():
                agg, _ = tree.query(box)
                observed.append(agg.count)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def depth_walker():
        # depth() holds the tree lock, so it must never crash or see
        # an inconsistent chain while splits race it
        try:
            while not stop.is_set():
                d = tree.depth()
                assert 1 <= d <= 64, d
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = (
        [thread(inserter)]
        + [thread(querier) for _ in range(2)]
        + [thread(depth_walker)]
    )
    run(threads, stop)
    assert not errors
    assert len(tree) == 600
    tree.validate()
    # Every observation is within the range of what was inserted so far.
    assert all(0 <= c <= 600 for c in observed)
    final, _ = tree.query(box)
    assert final.count == 600


@pytest.mark.parametrize("cls", THREADED)
def test_query_batch_races_inserts(cls):
    """The batched engine (packed-key caches and all) races inserts.

    Measures are 1.0, so any per-box aggregate with ``total != count``
    is a torn read; stale packed snapshots would also show up as lost
    items in the final full-box batch."""
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = cls(schema, config)
    batch = random_batch(schema, 500, seed=91)
    batch.measures[:] = 1.0
    box = full_query(schema).box
    boxes = [box] * 4
    stop = threading.Event()
    errors = []
    torn = []

    def inserter():
        try:
            for coords, m in batch.iter_rows():
                tree.insert(coords, m)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()

    def batch_querier():
        try:
            while not stop.is_set():
                for agg, _ in tree.query_batch(boxes):
                    if agg.total != agg.count:
                        torn.append((agg.count, agg.total))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [thread(inserter)] + [
        thread(batch_querier) for _ in range(2)
    ]
    run(threads, stop)
    assert not errors
    assert not torn
    assert len(tree) == 500
    tree.validate()
    for agg, _ in tree.query_batch([box]):
        assert agg.count == 500 and agg.total == 500.0


@pytest.mark.parametrize("entry", ["query", "query_batch"])
@pytest.mark.parametrize("cls", THREADED)
def test_no_out_of_box_row_under_key_growth(cls, entry):
    """A child decided *within* from its parent's snapshot may grow out
    of the box before its cached aggregate is read.

    The box covers the lower half of dimension 0.  Rows inside it carry
    measure 1.0 and go in first, so many nodes lie wholly within the
    box; rows outside it carry 1000.0 and then grow those nodes' keys
    one by one while two threads query.  An answer with ``total !=
    count`` took a cached aggregate on the strength of a key that had
    already moved (the read engine's ``key_version`` re-check); with one
    inserter, the counts a querier sees never shrink.
    """
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = cls(schema, config)
    half = int(schema.leaf_limits[0]) // 2
    box = Box(np.zeros(2, dtype=np.int64), schema.leaf_limits)
    box.hi[0] = half
    batch = random_batch(schema, 1500, seed=97)
    inside = batch.coords[:, 0] <= half
    batch.measures[:] = np.where(inside, 1.0, 1000.0)
    order = np.concatenate([np.flatnonzero(inside), np.flatnonzero(~inside)])
    batch = batch.take(order)
    n_inside = int(inside.sum())
    ask = (
        tree.query
        if entry == "query"
        else lambda b: tree.query_batch([b, b])[1]
    )
    stop = threading.Event()
    errors = []
    bad = []

    def inserter():
        try:
            for coords, m in batch.iter_rows():
                tree.insert(coords, m)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()

    def querier():
        seen = 0
        try:
            while not stop.is_set():
                agg, _ = ask(box)
                if agg.total != agg.count or agg.count < seen:
                    bad.append((seen, agg.count, agg.total))
                seen = agg.count
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [thread(inserter)] + [
        thread(querier) for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run(threads, stop)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert not bad
    tree.validate()
    agg, _ = ask(box)
    assert agg.count == n_inside and agg.total == float(n_inside)


@pytest.mark.parametrize(
    "cls, writer",
    [
        (HilbertPDCTree, "insert_batch"),
        (PDCTree, "insert_batch"),
        (HilbertRTree, "insert"),
        (RTree, "insert"),
        (HilbertRTree, "insert_batch"),
        (RTree, "insert_batch"),
    ],
)
def test_no_out_of_box_row_under_batch_and_box_growth(cls, writer):
    """The check above for what it leaves out: a batch writer (2-8 rows
    a call, growing a key by several rows at once) and the MBR trees,
    whose ``Box`` growth is two writes (``lo`` then ``hi``).  A writer
    holds the tree lock for its whole call, and so does a reader while
    it classifies key blocks and reads the *within* children's
    aggregates; an answer with ``total != count`` saw a key and an
    aggregate of different moments."""
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = cls(schema, config)
    half = int(schema.leaf_limits[0]) // 2
    box = Box(np.zeros(2, dtype=np.int64), schema.leaf_limits)
    box.hi[0] = half
    batch = random_batch(schema, 1500, seed=98)
    inside = batch.coords[:, 0] <= half
    batch.measures[:] = np.where(inside, 1.0, 1000.0)
    order = np.concatenate([np.flatnonzero(inside), np.flatnonzero(~inside)])
    batch = batch.take(order)
    n_inside = int(inside.sum())
    cuts = [0]
    rng = np.random.default_rng(5)
    while cuts[-1] < len(batch):
        cuts.append(min(len(batch), cuts[-1] + int(rng.integers(2, 9))))
    stop = threading.Event()
    errors = []
    bad = []

    def inserter():
        try:
            if writer == "insert":
                for coords, m in batch.iter_rows():
                    tree.insert(coords, m)
            else:
                for lo, hi in zip(cuts, cuts[1:]):
                    tree.insert_batch(batch.slice(lo, hi))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()

    def querier():
        seen, turn = 0, 0
        try:
            while not stop.is_set():
                turn += 1
                if turn % 2:
                    agg, _ = tree.query(box)
                else:
                    agg, _ = tree.query_batch([box, box])[1]
                if agg.total != agg.count or agg.count < seen:
                    bad.append((seen, agg.count, agg.total))
                seen = agg.count
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [thread(inserter)] + [
        thread(querier) for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run(threads, stop)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert not bad
    tree.validate()
    agg, _ = tree.query(box)
    assert agg.count == n_inside and agg.total == float(n_inside)


@pytest.mark.parametrize("cls", THREADED)
def test_query_batch_and_depth_walker_race_repacks(cls):
    """Readers race columnar leaf grow/repack and must never observe a
    torn aggregate or an out-of-bounds column view.

    Batched inserts use chunks larger than ``leaf_capacity``, so every
    chunk overflows some leaf and takes the repack path (new leaves
    spliced in, old slots released).  Measures are 1.0: any observed
    aggregate with ``total != count`` is a torn read, and a stale or
    over-long column view would crash the querier or produce
    ``count > inserted``."""
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=4, fanout=3)
    tree = cls(schema, config)
    total_rows = 800
    chunk = 13  # > leaf_capacity: every chunk forces grow/repack
    batch = random_batch(schema, total_rows, seed=101)
    batch.measures[:] = 1.0
    box = full_query(schema).box
    boxes = [box] * 3
    stop = threading.Event()
    errors = []
    torn = []

    def inserter():
        try:
            for lo in range(0, total_rows, chunk):
                tree.insert_batch(batch.slice(lo, min(lo + chunk, total_rows)))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def batch_querier():
        try:
            while not stop.is_set():
                for agg, _ in tree.query_batch(boxes):
                    if agg.total != agg.count:
                        torn.append((agg.count, agg.total))
                    if agg.count > total_rows:
                        torn.append(("overcount", agg.count))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def depth_walker():
        try:
            while not stop.is_set():
                d = tree.depth()
                assert 1 <= d <= 64, d
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = (
        [thread(inserter)]
        + [thread(batch_querier) for _ in range(2)]
        + [thread(depth_walker)]
    )
    run(threads, stop)
    assert not errors
    assert not torn
    assert len(tree) == total_rows
    tree.validate()
    for agg, _ in tree.query_batch([box]):
        assert agg.count == total_rows and agg.total == float(total_rows)


def test_concurrent_batch_inserts_and_queries():
    """Batched inserts race queries: no torn aggregates, nothing lost.

    Every measure is 1.0, so any aggregate a querier observes must have
    ``total == count`` -- a torn read (count updated on one path node
    but not the sum, or a half-committed run) would break the equality.
    """
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = HilbertPDCTree(schema, config)
    n_threads = 3
    per_thread = 400
    chunk = 37
    batches = [random_batch(schema, per_thread, seed=50 + i) for i in range(n_threads)]
    for b in batches:
        b.measures[:] = 1.0
    box = full_query(schema).box
    stop = threading.Event()
    errors = []
    torn = []

    def inserter(b):
        try:
            for lo in range(0, len(b), chunk):
                tree.insert_batch(b.slice(lo, min(lo + chunk, len(b))))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def querier():
        try:
            while not stop.is_set():
                agg, _ = tree.query(box)
                if agg.total != agg.count:
                    torn.append((agg.count, agg.total))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    inserters = [
        thread(inserter, b) for b in batches
    ]
    queriers = [thread(querier) for _ in range(2)]
    run(inserters, stop, after=queriers)
    assert not errors
    assert not torn
    total = n_threads * per_thread
    assert len(tree) == total
    tree.validate()
    agg, _ = tree.query(box)
    assert agg.count == total and agg.total == float(total)


def test_mixed_single_and_batch_inserts():
    """Per-record and batched writers interleave on one tree."""
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = HilbertPDCTree(schema, config)
    single = random_batch(schema, 300, seed=71)
    batched = random_batch(schema, 300, seed=72)
    errors = []

    def one_by_one():
        try:
            for coords, m in single.iter_rows():
                tree.insert(coords, m)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def in_chunks():
        try:
            for lo in range(0, len(batched), 25):
                tree.insert_batch(batched.slice(lo, lo + 25))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        thread(one_by_one),
        thread(in_chunks),
    ]
    run(threads)
    assert not errors
    assert len(tree) == 600
    tree.validate()
    agg, _ = tree.query(full_query(schema).box)
    assert agg.count == 600
    expected = float(single.measures.sum()) + float(batched.measures.sum())
    assert agg.total == pytest.approx(expected)


@pytest.mark.parametrize("entry", ["query", "query_batch"])
@pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree, PDCTree, RTree])
def test_released_slots_wait_for_running_scans(cls, entry, monkeypatch):
    """A scan collects leaves as arena slots and reads their rows after
    its last step, without their locks; a batch writer meanwhile
    repacks or splits those leaves and releases their slots.  Were a
    released slot reused while such a scan runs, the scan would read
    another leaf's rows (or none) in its place.  Tiny leaves make every
    batch give slots back, each scan waits a little between its walk
    and its read of the rows, and the interpreter switches threads as
    often as it can.  Every answer must lie between the box's counts
    before and after the writes, with ``total == count`` (measures are
    1.0).  The writes land outside the box, so those two counts are
    one: a scan that reads one leaf's rows in another's place is off by
    the difference."""
    from repro.core import ArrayStore

    schema = make_schema([[8, 8], [8, 8]])
    boot, data = random_batch(schema, 300, seed=111), random_batch(schema, 600, seed=112)
    boot.measures[:] = data.measures[:] = 1.0
    tree = cls.from_batch(
        schema, boot, TreeConfig(leaf_capacity=4, fanout=3)
    )
    box = full_query(schema).box
    box.hi[0] = int(schema.leaf_limits[0]) // 2
    data.coords[:, 0] = np.maximum(data.coords[:, 0], box.hi[0] + 1)
    before = ArrayStore.from_batch(schema, boot)
    low = before.query(box)[0].count
    before.insert_batch(data)
    high = before.query(box)[0].count
    ask = tree.query if entry == "query" else lambda b: tree.query_batch([b, b])[1]
    select = tree.arena.select

    def late_select(*args):
        time.sleep(0.002)  # the writer runs between the walk and the read
        return select(*args)

    monkeypatch.setattr(tree.arena, "select", late_select)
    stop = threading.Event()
    errors, bad = [], []

    def writer():
        try:
            rng = np.random.default_rng(113)
            lo = 0
            while lo < len(data):
                hi = lo + int(rng.integers(3, 12))
                tree.insert_batch(data.slice(lo, min(hi, len(data))))
                lo = hi
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def reader():
        try:
            while not stop.is_set():
                agg, _ = ask(box)
                if not low <= agg.count <= high or agg.total != agg.count:
                    bad.append((agg.count, agg.total))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [thread(writer)] + [thread(reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run(threads, stop)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not bad, (errors, bad[:5], low, high)
    tree.validate()
    agg, _ = ask(box)
    assert agg.count == high


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree, PDCTree, RTree])
def test_a_read_takes_sizes_before_rows(cls, held):
    """A scan reads its leaves' rows after the walk, so a write from
    inside the read (the tree lock is re-entrant) can append to a
    scanned leaf between any two of the read's takes; with ``held`` the
    test thread already holds the lock when the read starts.  The read must
    take the published sizes first: rows below a size read earlier
    never change, while rows at or above it may be a fresh slot's
    leftovers.  Here the root leaf's next free row holds a leftover
    inside the box, and a row outside the box is appended into it right
    after the read's first take (one-shot hook on the arena's arrays).
    A read that took the coordinates before the sizes would count the
    leftover under the new size."""
    schema = make_schema([[8, 8], [8, 8]])
    half = int(schema.leaf_limits[0]) // 2
    coords = np.array([[0, 1], [half, 2], [half + 1, 3]], dtype=np.int64)
    tree = cls.from_batch(
        schema,
        RecordBatch(coords, np.ones(3)),
        TreeConfig(leaf_capacity=8, fanout=4),
    )
    assert tree.root.is_leaf
    box = full_query(schema).box
    box.hi[0] = half
    tree.arena.chunk.coords[:, tree.root.slot, 3] = [0, 0]  # a leftover inside the box
    hooks = [lambda: tree.insert(np.array([half + 1, 0]), 1.0)]

    class Hooked(np.ndarray):
        def __getitem__(self, index):
            out = np.asarray(super().__getitem__(index))
            if hooks:
                hooks.pop()()
            return out

    chunk = tree.arena.chunk
    for name in ("coords", "measures", "sizes"):
        setattr(chunk, name, getattr(chunk, name).view(Hooked))
    if held:
        tree.lock.__enter__()  # kept: the read and its writer re-enter it
    agg, _ = tree.query(box)
    assert not hooks, "the writer did not run inside the read"
    assert (agg.count, agg.total) == (2, 2.0)
    assert len(tree) == 4


@pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree, PDCTree, RTree])
@pytest.mark.parametrize("entry", ["insert", "insert_batch"])
def test_slots_are_released_once_their_leaf_is_out_of_the_tree(cls, entry, monkeypatch):
    """A scan that starts after a slot's release must not be able to
    reach the leaf that held it (the slot may already hold another
    leaf's rows).  So when a split or repack frees a leaf's slot, no
    node of the tree -- the root pointer included, for a root leaf --
    may still point to that leaf.  The tree starts empty, so its first
    splits replace a root leaf."""
    schema = make_schema([[8, 8], [8, 8]])
    data = random_batch(schema, 200, seed=121)
    tree = cls(schema, TreeConfig(leaf_capacity=4, fanout=3))
    release = tree.arena.release
    released, linked = [], []

    def leaves():
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node.slot
            else:
                stack.extend(node.children)

    def checked_release(slot):
        released.append(slot)
        if slot in leaves():
            linked.append(slot)
        release(slot)

    monkeypatch.setattr(tree.arena, "release", checked_release)
    if entry == "insert":
        for row, m in zip(data.coords, data.measures):
            tree.insert(row, float(m))
    else:
        for lo in range(0, len(data), 7):
            tree.insert_batch(data.slice(lo, lo + 7))
    assert released, "no slot was released"
    assert not linked, f"slots freed while their leaf was in the tree: {linked[:5]}"
    tree.validate()
