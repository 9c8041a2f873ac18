"""Columnar (SoA) leaf storage benchmark: scans, transfer, memory.

Measures the three wins the columnar refactor claims, old layout vs
new, and writes them to ``BENCH_columnar.json`` at the repo root:

* **leaf-scan throughput** -- evaluating range predicates over every
  leaf row as a Python per-record loop (the pre-columnar
  array-of-structs layout) vs one numpy broadcast over the live column
  views the leaves actually hold now;
* **shard-transfer bytes and virtual time** -- the v1
  ``RecordBatch.to_bytes`` blob vs the v2 column frame that
  checkpoint/migrate/replica-seed now ship, priced through the default
  ``LatencyModel`` (same-AZ EC2: 200us + size / 10 Gbit/s);
* **resident bytes per 100k records** -- Python object storage (list
  of per-record tuples, measured with ``sys.getsizeof``) vs
  ``resident_bytes()`` over the packed column buffers.

Acceptance gates: >= 2x on leaf-scan throughput and >= 2x fewer
transfer bytes.  ``BENCH_QUICK=1`` shrinks the run for CI smoke.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import HilbertPDCTree
from repro.olap.colframe import encode_batch, is_column_frame
from repro.cluster.transport import LatencyModel
from repro.workloads import TPCDSGenerator, tpcds_schema

SCHEMA = tpcds_schema()

QUICK = bool(os.environ.get("BENCH_QUICK"))

N_RECORDS = 20_000 if QUICK else 100_000
N_BOXES = 10 if QUICK else 30
FLOOR = 2.0  # both gates


def make_boxes(batch, n, seed=1):
    """Range boxes spanning random sub-cubes of the key space."""
    rng = np.random.default_rng(seed)
    limits = np.asarray(SCHEMA.leaf_limits, dtype=np.int64)
    boxes = []
    for _ in range(n):
        a = rng.integers(0, limits + 1)
        b = rng.integers(0, limits + 1)
        boxes.append((np.minimum(a, b), np.maximum(a, b)))
    return boxes


def collect_leaves(tree):
    """``(coords, measures)`` of every leaf: live views of its arena slot."""
    leaves, stack = [], [tree.root]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            leaves.append((tree.arena.coords(n.slot), tree.arena.measures(n.slot)))
        else:
            stack.extend(n.children)
    return leaves


def scan_per_record(aos_leaves, boxes):
    """The old layout's scan: a Python loop over per-record tuples."""
    t0 = time.perf_counter()
    out = []
    for lo, hi in boxes:
        lo_t, hi_t = tuple(lo.tolist()), tuple(hi.tolist())
        count, total = 0, 0.0
        for rows in aos_leaves:
            for coords, m in rows:
                if all(
                    lo_t[d] <= coords[d] <= hi_t[d] for d in range(len(lo_t))
                ):
                    count += 1
                    total += m
        out.append((count, total))
    return time.perf_counter() - t0, out


def scan_columnar(leaves, boxes):
    """The new layout's scan: one broadcast per leaf over live views."""
    t0 = time.perf_counter()
    out = []
    for lo, hi in boxes:
        count, total = 0, 0.0
        for c, m in leaves:
            mask = ((c >= lo) & (c <= hi)).all(axis=1)
            n = int(np.count_nonzero(mask))
            if n:
                count += n
                total += float(m[mask].sum())
        out.append((count, total))
    return time.perf_counter() - t0, out


def python_object_bytes(batch):
    """Resident bytes of the pre-columnar layout: per-record objects."""
    rows = [
        (tuple(int(x) for x in batch.coords[i]), float(batch.measures[i]))
        for i in range(len(batch))
    ]
    seen = set()
    total = sys.getsizeof(rows)
    for coords, m in rows:
        total += sys.getsizeof(coords) + sys.getsizeof(m)
        for x in coords:
            if id(x) not in seen:  # small ints are interned
                seen.add(id(x))
                total += sys.getsizeof(x)
    return total


def test_columnar_vs_per_record():
    data = TPCDSGenerator(SCHEMA, seed=0).batch(N_RECORDS)
    tree = HilbertPDCTree.from_batch(SCHEMA, data)
    leaves = collect_leaves(tree)
    boxes = make_boxes(data, N_BOXES)

    # --- leaf scans: per-record Python loop vs column broadcast -------
    aos_leaves = [
        list(
            zip(
                (tuple(r) for r in c.tolist()),
                m.tolist(),
            )
        )
        for c, m in leaves
    ]
    old_s, old_out = scan_per_record(aos_leaves, boxes)
    new_s, new_out = scan_columnar(leaves, boxes)
    for (oc, ot), (nc, nt) in zip(old_out, new_out):
        assert oc == nc and abs(ot - nt) < 1e-6 * max(1.0, abs(ot))
    rows_scanned = N_RECORDS * N_BOXES
    scan = {
        "per_record_s": round(old_s, 3),
        "columnar_s": round(new_s, 3),
        "per_record_rows_per_s": round(rows_scanned / old_s),
        "columnar_rows_per_s": round(rows_scanned / new_s),
        "speedup": round(old_s / new_s, 2),
    }

    # --- shard transfer: v1 blob vs v2 column frame -------------------
    batch = tree.items()
    v1_blob = batch.to_bytes()
    v2_blob = tree.serialize()
    assert is_column_frame(v2_blob) and not is_column_frame(v1_blob)
    assert len(encode_batch(batch)) == len(v2_blob)
    lat = LatencyModel()
    migrate = {
        "v1_bytes": len(v1_blob),
        "v2_bytes": len(v2_blob),
        "bytes_ratio": round(len(v1_blob) / len(v2_blob), 2),
        "v1_virtual_s": round(lat.base + len(v1_blob) / lat.bandwidth, 6),
        "v2_virtual_s": round(lat.base + len(v2_blob) / lat.bandwidth, 6),
    }

    # --- resident memory per 100k records ------------------------------
    scale = 100_000 / N_RECORDS
    obj_bytes = python_object_bytes(data)
    col_bytes = tree.resident_bytes()
    memory = {
        "python_objects_bytes_per_100k": round(obj_bytes * scale),
        "columnar_bytes_per_100k": round(col_bytes * scale),
        "ratio": round(obj_bytes / col_bytes, 2),
    }

    result = {
        "records": N_RECORDS,
        "boxes": N_BOXES,
        "quick": QUICK,
        "leaf_scan": scan,
        "shard_migrate": migrate,
        "resident_memory": memory,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_columnar.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print()
    print(f"columnar vs per-record: {json.dumps(result)}")
    assert scan["speedup"] >= FLOOR, result
    assert migrate["bytes_ratio"] >= FLOOR, result
