"""Concurrency tests: the PDC-tree locking protocol under real threads.

The paper's trees are multi-threaded with minimal locking (Section
III-C/D: "operations hold only one or two node locks at a given time").
The Python GIL removes parallel speedup but not interleaving, so these
tests genuinely exercise the hand-over-hand protocol: concurrent
inserters and queriers race on one tree, and afterwards all invariants
must hold and no item may be lost.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import HilbertPDCTree, HilbertRTree, PDCTree, RTree, TreeConfig
from repro.olap.keys import Box
from repro.olap.query import full_query

from .conftest import make_schema, random_batch

THREADED = [HilbertPDCTree, PDCTree]


@pytest.mark.parametrize("cls", THREADED)
def test_concurrent_inserts_lose_nothing(cls):
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4, thread_safe=True)
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

    threads = [threading.Thread(target=worker, args=(b,)) for b in batches]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
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
    config = TreeConfig(leaf_capacity=8, fanout=4, thread_safe=True)
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
        # depth() takes node locks hand-over-hand, so it must never
        # crash or see an inconsistent chain while splits race it
        try:
            while not stop.is_set():
                d = tree.depth()
                assert 1 <= d <= 64, d
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = (
        [threading.Thread(target=inserter)]
        + [threading.Thread(target=querier) for _ in range(2)]
        + [threading.Thread(target=depth_walker)]
    )
    for t in threads:
        t.start()
    for t in threads:
        t.join()
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
    config = TreeConfig(leaf_capacity=8, fanout=4, thread_safe=True)
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

    threads = [threading.Thread(target=inserter)] + [
        threading.Thread(target=batch_querier) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
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
    config = TreeConfig(leaf_capacity=8, fanout=4, thread_safe=True)
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

    threads = [threading.Thread(target=inserter)] + [
        threading.Thread(target=querier) for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
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
    whose ``Box`` growth is two writes (``lo`` then ``hi``).  A node's
    key and aggregate change only under its parent's lock, which a
    reader holds while it classifies the parent's key block and reads
    the *within* children's aggregates; an answer with ``total !=
    count`` saw a key and an aggregate of different moments."""
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4, thread_safe=True)
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

    threads = [threading.Thread(target=inserter)] + [
        threading.Thread(target=querier) for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
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
    chunk overflows some leaf and takes the repack path (new column
    buffers spliced under path locks).  Measures are 1.0: any observed
    aggregate with ``total != count`` is a torn read, and a stale or
    over-long column view would crash the querier or produce
    ``count > inserted``."""
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=4, fanout=3, thread_safe=True)
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
        [threading.Thread(target=inserter)]
        + [threading.Thread(target=batch_querier) for _ in range(2)]
        + [threading.Thread(target=depth_walker)]
    )
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert not torn
    assert len(tree) == total_rows
    tree.validate()
    for agg, _ in tree.query_batch([box]):
        assert agg.count == total_rows and agg.total == float(total_rows)


def test_thread_safe_flag_creates_locks():
    schema = make_schema([[4, 4]])
    safe = HilbertPDCTree(schema, TreeConfig(thread_safe=True))
    unsafe = HilbertPDCTree(schema, TreeConfig(thread_safe=False))
    assert safe.root.lock is not None
    assert unsafe.root.lock is None


def test_locking_overhead_is_optional(schema, batch):
    """Both modes produce structurally identical results for serial input."""
    cfg_on = TreeConfig(leaf_capacity=16, fanout=8, thread_safe=True)
    cfg_off = TreeConfig(leaf_capacity=16, fanout=8, thread_safe=False)
    a = HilbertPDCTree(schema, cfg_on)
    b = HilbertPDCTree(schema, cfg_off)
    for coords, m in batch.iter_rows():
        a.insert(coords, m)
        b.insert(coords, m)
    a.validate()
    b.validate()
    assert a.depth() == b.depth()
    assert a.node_count() == b.node_count()


def test_concurrent_batch_inserts_and_queries():
    """Batched inserts race queries: no torn aggregates, nothing lost.

    Every measure is 1.0, so any aggregate a querier observes must have
    ``total == count`` -- a torn read (count updated on one path node
    but not the sum, or a half-committed run) would break the equality.
    """
    schema = make_schema([[8, 8], [8, 8]])
    config = TreeConfig(leaf_capacity=8, fanout=4, thread_safe=True)
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
        threading.Thread(target=inserter, args=(b,)) for b in batches
    ]
    queriers = [threading.Thread(target=querier) for _ in range(2)]
    for t in queriers + inserters:
        t.start()
    for t in inserters:
        t.join()
    stop.set()
    for t in queriers:
        t.join()
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
    config = TreeConfig(leaf_capacity=8, fanout=4, thread_safe=True)
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
        threading.Thread(target=one_by_one),
        threading.Thread(target=in_chunks),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(tree) == 600
    tree.validate()
    agg, _ = tree.query(full_query(schema).box)
    assert agg.count == 600
    expected = float(single.measures.sum()) + float(batched.measures.sum())
    assert agg.total == pytest.approx(expected)
