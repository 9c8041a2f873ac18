"""Tree shapes: the placement rules must leave every tree bit-identical.

The sim fingerprint grows its trees through ``insert_batch`` only, so
it pins neither the per-row insert path nor the image's shard adds.
Here every tree variant takes a seeded batch one ``insert`` at a time
(small nodes, so the child choice, the split scan and both splits run
hundreds of times), and a ``LocalImage`` of each key kind takes seeded
shard adds and key-growing routed rows.  What is compared with
``golden/tree_shapes.json``: the depth, the node count, the summed
``OpStats`` and a digest of every node's key, LHV and size in DFS order
(trees); the chosen shard ids, the dirty set and a digest of every node
key (images).

A *deliberate* change of a placement rule regenerates the golden in
the same commit::

    PYTHONPATH=src python -m tests.test_tree_shapes
"""

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.image import LocalImage, ShardInfo
from repro.core import HilbertPDCTree, HilbertRTree, OpStats, PDCTree, RTree
from repro.olap.keys import Box

from .conftest import make_schema, random_batch

GOLDEN = Path(__file__).parent / "golden" / "tree_shapes.json"

#: name -> (tree class, config overrides besides the key kind)
TREES = {
    "pdc_least_overlap": (PDCTree, {"insert_policy": "least_overlap"}),
    "pdc_least_enlargement": (PDCTree, {"insert_policy": "least_enlargement"}),
    "rtree": (RTree, {}),
    "hilbert_pdc_least_overlap": (HilbertPDCTree, {"split_policy": "least_overlap"}),
    "hilbert_pdc_middle": (HilbertPDCTree, {"split_policy": "middle"}),
    "hilbert_rtree": (HilbertRTree, {}),
}
KINDS = ("mbr", "mds")


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def tree_shape(name: str, kind: str) -> dict:
    cls, overrides = TREES[name]
    config = replace(
        cls._default_config(), leaf_capacity=6, fanout=4, key_kind=kind, **overrides
    )
    schema = make_schema()
    tree = cls(schema, config)
    total = OpStats()
    for coords, m in random_batch(schema, 600, seed=11).iter_rows():
        total.merge(tree.insert(coords, m))
    tree.validate()
    nodes, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        size = tree.arena.size(node.slot) if node.is_leaf else 0
        nodes.append((node.key.to_tuple(), node.lhv, size))
        if not node.is_leaf:
            stack.extend(reversed(node.children))
    return {
        "depth": tree.depth(),
        "node_count": tree.node_count(),
        "stats": asdict(total),
        "nodes": _digest(nodes),
    }


def image_shape(kind: str) -> dict:
    rng = np.random.default_rng([3, kind == "mds"])
    dims = 3
    img = LocalImage(dims, fanout=3, key_kind=kind)
    chosen = []
    for rnd in range(4):
        for sid in range(rnd * 12, rnd * 12 + 12):
            lo = rng.integers(0, 400, dims)
            img.add_shard(ShardInfo(sid, Box(lo, lo + rng.integers(0, 60, dims)), 0))
        # a third of the rows a shard corner (covered), the rest anywhere
        # up to past the root's key (they grow keys)
        rows = rng.integers(0, 600, (90, dims))
        for j in range(0, len(rows), 3):
            rows[j] = img.get(int(rng.integers(0, len(img)))).box.lo
        chosen += [img.route_insert(rows, i).shard_id for i in range(len(rows))]
    img.validate()
    keys, stack = [], [img.root]
    while stack:
        node = stack.pop()
        keys.append(node.key.to_tuple())
        if not node.is_leaf:
            stack.extend(reversed(node.children))
    return {"chosen": chosen, "dirty": sorted(img.dirty), "keys": _digest(keys)}


def shapes() -> dict:
    out = {f"{name} {kind}": tree_shape(name, kind) for name in TREES for kind in KINDS}
    out.update({f"image {kind}": image_shape(kind) for kind in KINDS})
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_shape(golden, name, kind):
    assert tree_shape(name, kind) == golden[f"{name} {kind}"]


@pytest.mark.parametrize("kind", KINDS)
def test_image_shape(golden, kind):
    assert image_shape(kind) == golden[f"image {kind}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(shapes(), indent=1, sort_keys=True) + "\n")
