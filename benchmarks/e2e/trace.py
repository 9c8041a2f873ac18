"""Benchmark-side tracing: spans around the calls into each layer.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces the public
entry points listed in ``WRAPS`` with wrappers that, while the tracer is
active, record one span per call -- layer, start, end, parent span, the
message kind / op id where the call carries one, and the work counts
the call reports (rows, bytes, ``OpStats``).  Spans stay in memory and
are written to ``out/`` when the run ends; ``fold`` turns them into the
per-layer table (``_self_s`` = span time minus the part its child spans
cover).  Forked mp workers inherit the wrappers, trace themselves and
dump their spans when ``_child_main`` returns; ``time.perf_counter`` is
one clock for all processes of a host, so the parent cuts every process's
spans to the replay's interval.

A target that no longer exists is skipped with a warning and its layer's
rows read 0; end-to-end metrics never pass through this module.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path

# (layer, module, class or None, attribute, tag(args, out) -> (kind, op) or
#  None, nums(args, out) -> tuple of counts or None).  One row per wrapped call.


def _msg_tag(args, out):
    msg = args[1]
    payload = msg.payload
    op = None
    if msg.kind in _OP_FIRST and isinstance(payload, tuple) and payload:
        op = payload[0]
    return (msg.kind, op)


_OP_FIRST = frozenset(
    {"client_insert", "client_query", "insert_done", "insert_failed", "query_done"}
)


def _send_tag(args, out):
    return (args[2].kind, None)


def _kind_arg_tag(args, out):
    return (args[0], None)


def _decode_tag(args, out):
    return (out[0], None) if out else None


def _send_nums(args, out):
    return (args[2].size or 0,)


def _rows_of_coords(args, out):
    return (len(args[1]),)


def _insert_nums(args, out):
    return (len(args[1]), out.splits, out.repacks)


def _insert_one_nums(args, out):
    return (1, out.splits, out.repacks)


def _query_nums(args, out):
    stats = out[1]
    return (1, stats.nodes_visited, stats.leaves_visited, stats.items_scanned, stats.agg_hits)


def _query_batch_nums(args, out):
    n = v = lv = sc = hits = 0
    for _agg, stats in out:
        n += 1
        v += stats.nodes_visited
        lv += stats.leaves_visited
        sc += stats.items_scanned
        hits += stats.agg_hits
    return (n, v, lv, sc, hits)


def _from_batch_nums(args, out):
    return (len(args[2]),)


def _len_out(args, out):
    return (len(out),)


def _decode_nums(args, out):
    return (len(args[0]),)


def _search_nums(args, out):
    return (len(out),)


def _fired(args, out):
    return (out,)


_STORE = "<store>"  # resolved to ``ClusterConfig().store_cls`` at install

WRAPS = (
    ("hilbert.keys", "repro.hilbert.id_expansion", "HilbertKeyMapper", "keys", None, _rows_of_coords),
    ("hilbert.keys", "repro.hilbert.id_expansion", "HilbertKeyMapper", "key_words", None, _rows_of_coords),
    ("core.insert", _STORE, None, "insert_batch", None, _insert_nums),
    ("core.insert", _STORE, None, "insert", None, _insert_one_nums),
    ("core.query", _STORE, None, "query", None, _query_nums),
    ("core.query", _STORE, None, "query_batch", None, _query_batch_nums),
    ("core.from_batch", _STORE, None, "from_batch", None, _from_batch_nums),
    ("core.serialize", _STORE, None, "serialize", None, _len_out),
    ("core.split", _STORE, None, "split", None, None),
    ("runtime.frames.encode", "repro.runtime.frames", None, "encode", _kind_arg_tag, _len_out),
    ("runtime.frames.decode", "repro.runtime.frames", None, "decode", _decode_tag, _decode_nums),
    ("runtime.frames.wire_size", "repro.runtime.frames", None, "wire_size", _kind_arg_tag, None),
    ("cluster.transport.send", "repro.cluster.transport", "Transport", "send", _send_tag, _send_nums),
    ("cluster.transport.send", "repro.cluster.transport", "Transport", "send_local", _send_tag, _send_nums),
    ("cluster.image.route_insert", "repro.cluster.image", "LocalImage", "route_insert", None, None),
    ("cluster.image.search", "repro.cluster.image", "LocalImage", "search", None, _search_nums),
    ("cluster.server.receive", "repro.cluster.server", "Server", "receive", _msg_tag, None),
    ("cluster.server.sync", "repro.cluster.server", "Server", "sync_to_zookeeper", None, None),
    ("cluster.worker.receive", "repro.cluster.worker", "Worker", "receive", _msg_tag, None),
    ("cluster.worker.checkpoint", "repro.cluster.worker", "Worker", "checkpoint", None, None),
    ("cluster.manager.receive", "repro.cluster.manager", "Manager", "receive", _msg_tag, None),
    ("cluster.manager.scan", "repro.cluster.manager", "Manager", "scan", None, None),
    ("cluster.client.receive", "repro.cluster.client", "ClientSession", "receive", _msg_tag, None),
    ("cluster.client.issue", "repro.cluster.client", "ClientSession", "run_stream", None, None),
    ("runtime.timers", "repro.runtime.asyncio_rt", "WallClock", "fire_due", None, _fired),
    ("bench.feed", "workloads", "OpStream", "take", None, None),
)

#: what each layer's ``nums`` mean, in order -> per-layer metric names
NUM_NAMES = {
    "hilbert.keys": ("hilbert.keys_rows",),
    "core.insert": ("core.insert_rows", "core.node_splits", "core.repacks"),
    "core.query": (
        "core.query_boxes",
        "core.nodes_visited",
        "core.leaves_visited",
        "core.items_scanned",
        "core.agg_hits",
    ),
    "core.from_batch": ("core.from_batch_rows",),
    "core.serialize": ("core.serialize_bytes",),
    "runtime.frames.encode": ("runtime.frames.encode_bytes",),
    "runtime.frames.decode": ("runtime.frames.decode_bytes",),
    "cluster.transport.send": ("cluster.transport.bytes",),
    "cluster.image.search": ("cluster.image.shards_found",),
    "runtime.timers": ("runtime.timer_fires",),
}

#: layer -> (calls metric or None, self-time metric or None)
LAYER_NAMES = {
    "hilbert.keys": ("hilbert.keys_calls", "hilbert.keys_self_s"),
    "core.insert": ("core.insert_calls", "core.insert_self_s"),
    "core.query": ("core.query_calls", "core.query_self_s"),
    "core.from_batch": (None, "core.from_batch_self_s"),
    "core.serialize": ("core.serialize_calls", "core.serialize_self_s"),
    "core.split": ("core.split_calls", "core.split_self_s"),
    "runtime.frames.encode": ("runtime.frames.encode_calls", "runtime.frames.encode_self_s"),
    "runtime.frames.decode": ("runtime.frames.decode_calls", "runtime.frames.decode_self_s"),
    "runtime.frames.wire_size": (
        "runtime.frames.wire_size_calls",
        "runtime.frames.wire_size_self_s",
    ),
    "cluster.transport.send": ("cluster.transport.messages", "cluster.transport.send_self_s"),
    "cluster.image.route_insert": (
        "cluster.image.route_insert_calls",
        "cluster.image.route_insert_self_s",
    ),
    "cluster.image.search": ("cluster.image.search_calls", "cluster.image.search_self_s"),
    "cluster.server.receive": ("cluster.server.receive_calls", "cluster.server.receive_self_s"),
    "cluster.server.sync": (None, "cluster.server.sync_self_s"),
    "cluster.worker.receive": ("cluster.worker.receive_calls", "cluster.worker.receive_self_s"),
    "cluster.worker.checkpoint": ("cluster.worker.checkpoints", "cluster.worker.checkpoint_self_s"),
    "cluster.manager.receive": (None, "cluster.manager.receive_self_s"),
    "cluster.manager.scan": (None, "cluster.manager.scan_self_s"),
    "cluster.client.receive": (None, "cluster.client.receive_self_s"),
    "cluster.client.issue": (None, "cluster.client.issue_self_s"),
    "runtime.timers": (None, "runtime.timers_self_s"),
    "bench.feed": (None, "bench.feed_self_s"),
}


def _find_owner(cls, attr):
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass.__dict__[attr]
    raise AttributeError(f"{cls.__name__}.{attr}")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        #: (layer, start, end, parent index, tag, nums); None = still open
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self.missing: list[str] = []

    # -- wrapping ----------------------------------------------------------

    def install(self, store_cls, child_dump_dir: Path | None = None, label: str = "") -> None:
        for layer, module, cls_name, attr, tag, nums in WRAPS:
            try:
                if module == _STORE:
                    owner = store_cls
                else:
                    owner = importlib.import_module(module)
                    if cls_name is not None:
                        owner = getattr(owner, cls_name)
                self._wrap(owner, attr, layer, tag, nums)
            except (ImportError, AttributeError) as exc:
                print(f"trace: {layer} not wrapped ({exc}); its rows read 0", file=sys.stderr)
                self.missing.append(layer)
        if child_dump_dir is not None:
            self._wrap_child_main(child_dump_dir, label)

    def _wrap(self, owner, attr, layer, tag, nums) -> None:
        if isinstance(owner, type):
            raw = _find_owner(owner, attr)
            had_own = attr in owner.__dict__
        else:
            raw = getattr(owner, attr)
            had_own = True
        if isinstance(raw, classmethod):
            new = classmethod(self._traced(raw.__func__, layer, tag, nums))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._traced(raw.__func__, layer, tag, nums))
        else:
            new = self._traced(raw, layer, tag, nums)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw if had_own else None))

    def _wrap_child_main(self, out_dir: Path, label: str) -> None:
        try:
            mp = importlib.import_module("repro.runtime.mp")
            orig = mp._child_main
        except (ImportError, AttributeError) as exc:
            print(f"trace: mp children not traced ({exc})", file=sys.stderr)
            self.missing.append("runtime.mp.child")
            return

        def child_main(sock, worker_id, *rest):
            # a forked copy: forget the parent's spans, trace from birth
            self.spans.clear()
            self._stack.clear()
            self.active = True
            try:
                orig(sock, worker_id, *rest)
            finally:
                self.active = False
                self.dump(out_dir / f"{label}.worker{worker_id}.spans.json")

        mp._child_main = child_main
        self._undo.append((mp, "_child_main", orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def _traced(self, fn, layer, tag, nums):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            out, returned = None, False
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (
                    layer, t0, t1, parent,
                    tag(args, out) if tag else None,
                    nums(args, out) if nums and returned else None,
                )

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["layer", "start", "end", "parent", "tag", "nums"],
                 "spans": self.spans},
                fh,
                default=lambda scalar: scalar.item(),  # numpy counts
            )


def load_spans(path: Path) -> list:
    with open(path) as fh:
        return json.load(fh)["spans"]


def fold(processes: dict[str, list], t0: float, t1: float) -> dict:
    """Per-layer calls, counts and self seconds over ``[t0, t1]``.

    ``processes`` maps a process name ("parent", "worker0", ...) to its
    span list.  A span counts when it *starts* inside the interval.
    Also returns the time covered by each process's root spans, the
    parent's longest root span, and the longest root span that holds a
    split or handles a split/migrate message.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    nums: dict[str, list[int]] = {}
    out = {"root_s": {}, "root_max_s": 0.0, "stall_max_s": 0.0}
    for proc, spans in processes.items():
        child_s = [0.0] * len(spans)
        has_split = [False] * len(spans)
        root_s = 0.0
        # children close before parents and sit at higher indexes
        for i in range(len(spans) - 1, -1, -1):
            span = spans[i]
            if span is None:
                continue
            layer, start, end, parent, tag, counts = span
            dur = end - start
            split = has_split[i] or layer == "core.split" or (
                tag is not None and str(tag[0]).startswith(("split", "migrate"))
            )
            if parent >= 0:
                child_s[parent] += dur
                has_split[parent] = has_split[parent] or split
            if not t0 <= start <= t1:
                continue
            calls[layer] += 1
            self_s[layer] += dur - child_s[i]
            if counts is not None:
                acc = nums.setdefault(layer, [0] * len(counts))
                for k, v in enumerate(counts):
                    acc[k] += v
            if parent < 0:
                root_s += dur
                if proc == "parent":
                    out["root_max_s"] = max(out["root_max_s"], dur)
                if split:
                    out["stall_max_s"] = max(out["stall_max_s"], dur)
        out["root_s"][proc] = root_s
    out["calls"], out["self_s"], out["nums"] = dict(calls), dict(self_s), nums
    return out


def layer_metrics(folded: dict) -> dict[str, float]:
    """Name the folded numbers as BENCHMARK.json's per-layer metrics."""
    m: dict[str, float] = {}
    for layer, (calls_name, self_name) in LAYER_NAMES.items():
        if calls_name:
            m[calls_name] = folded["calls"].get(layer, 0)
        if self_name:
            m[self_name] = folded["self_s"].get(layer, 0.0)
    for layer, names in NUM_NAMES.items():
        values = folded["nums"].get(layer, [0] * len(names))
        for name, value in zip(names, values):
            m[name] = value
    return m


INSERT_KINDS = frozenset(
    {
        "client_insert", "client_insert_batch", "insert", "insert_batch", "insert_ack",
        "insert_nack", "insert_batch_ack", "insert_done", "insert_done_batch", "insert_failed",
    }
)
QUERY_KINDS = frozenset(
    {
        "client_query", "client_query_batch", "query", "query_batch", "query_result",
        "query_result_batch", "query_done",
    }
)


def budget(processes: dict[str, list], t0: float, t1: float, query_paths: list[str]) -> dict:
    """Self seconds per (path, layer), path in insert / point / scan / other.

    A span with a message kind takes the kind's path, any other span
    its parent's.  ``query_paths[k]`` is the path ("point" or "scan")
    of the k-th query to complete; when they differ the workload has
    one query in flight at a time, so a query-path span belongs to the
    query whose ``query_done`` is the next to reach the client.
    """
    one_path = query_paths[0] if len(set(query_paths)) == 1 else None
    done = sorted(
        span[2]
        for span in processes["parent"]
        if span is not None
        and span[0] == "cluster.client.receive"
        and span[4] is not None
        and span[4][0] == "query_done"
    )
    sums: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for spans in processes.values():
        child_s = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        paths: list[str] = []
        for i, span in enumerate(spans):
            if span is None:
                paths.append("other")
                continue
            layer, start, end, parent, tag, _counts = span
            kind = tag[0] if tag is not None else None
            if kind in INSERT_KINDS:
                path = "insert"
            elif kind in QUERY_KINDS:
                k = bisect_left(done, start)
                path = one_path or (query_paths[k] if k < len(query_paths) else "other")
            else:
                path = paths[parent] if parent >= 0 else "other"
            paths.append(path)
            if t0 <= start <= t1:
                sums[path][layer] += end - start - child_s[i]
    return {path: dict(layers) for path, layers in sums.items()}
