"""Data-plane wire codec: colframe column buffers, zero pickling.

Every message kind that crosses a worker boundary on the ``mp``
backend (and the loopback-TCP streams mode of the ``asyncio`` backend)
is encoded here as a :mod:`repro.olap.colframe` column frame behind a
tiny envelope::

    u8 kind code | u8 route len | route | u8 reply len | reply | colframe

``route`` is the destination entity name a worker-originated reply
carries back to the parent process; ``reply`` is the name of the
reply-to entity embedded in a request payload.  The data plane is one
message family -- ``insert_batch`` / ``query_batch`` / ``bulk_insert``
and their replies; a single op is a batch of one -- and all numeric
payload fields travel as int64/float64 columns (per-entry fields as the
rows of 2-D columns, message scalars in a packed meta column), so
insert batches, query batches, and bulk loads cross process boundaries
as raw column buffers -- **no data-plane field is ever pickled**, which
:func:`codec_stats` asserts (``data_pickled`` must stay 0).

The same column builders power exact message-size accounting
(:func:`wire_size`): the simulated transport charges bandwidth for
precisely the bytes the mp backend would put on the pipe, via
:func:`repro.olap.colframe.measure_columns`.  Kinds without a column
codec (the rare control plane: splits, migrations, restores) are sized
by an entity-aware pickler -- the exact length of the control frame
the mp backend ships, with entities reduced to their names.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Callable

import numpy as np

from ..olap.colframe import decode_columns, encode_columns, measure_columns
from ..olap.records import RecordBatch

__all__ = [
    "DATA_KINDS",
    "REQUEST_KINDS",
    "REPLY_KINDS",
    "encode",
    "decode",
    "wire_size",
    "codec_stats",
    "reset_codec_stats",
]

#: kinds with a full encode/decode column codec -- the mp data plane
REQUEST_KINDS = frozenset({"insert_batch", "bulk_insert", "query_batch"})
REPLY_KINDS = frozenset({"insert_batch_ack", "bulk_ack", "query_result_batch"})
DATA_KINDS = REQUEST_KINDS | REPLY_KINDS

#: kinds with column builders used for exact sizing only (they never
#: cross a process boundary: client<->server and worker<->worker hops
#: stay in the parent process on every backend)
_SIZE_REQUEST = frozenset({"client_insert_batch", "client_query_batch"})

_stats = {
    "data_frames": 0,  # column frames encoded or decoded
    "data_bytes": 0,
    "data_pickled": 0,  # MUST stay 0: the zero-pickle invariant
    "control_pickled": 0,  # control-plane frames (install/zk/barrier)
    "size_pickled": 0,  # size-only estimates that fell back to pickle
}


def codec_stats() -> dict:
    return dict(_stats)


def reset_codec_stats() -> None:
    for k in _stats:
        _stats[k] = 0


def note_control_pickle(nbytes: int = 0) -> None:
    _stats["control_pickled"] += 1


def note_data_frame(nbytes: int) -> None:
    _stats["data_frames"] += 1
    _stats["data_bytes"] += nbytes


# -- column builders ---------------------------------------------------------
#
# Each builder maps a payload to [(name, array)] columns.  A message of
# n entries carries its per-entry integers as the rows of one 2-D int64
# column and its per-entry floats as the rows of one 2-D float64
# column, so a one-entry message costs as few array constructions as a
# 64-entry one.  Message-level scalars ride in a packed "m" column.

_I64 = np.int64
_F64 = np.float64


def _i(values) -> np.ndarray:
    return np.asarray(values, dtype=_I64)


def _f(values) -> np.ndarray:
    return np.asarray(values, dtype=_F64)


def _op(op_id) -> int:
    return int(op_id) if op_id else 0


def _cols_insert_batch(p):
    entries, _reply = p
    return [
        ("x", _i([(e[0], e[3], _op(e[4])) for e in entries])),  # shard, token, op
        ("c", _i([e[1] for e in entries])),
        ("v", _f([e[2] for e in entries])),
    ]


def _cols_bulk_insert(p):
    sid, batch, token, _reply = p
    return [
        ("m", _i([sid, _op(token)])),
        ("c", batch.coords),
        ("v", batch.measures),
    ]


def _cols_query_batch(p):
    entries, _reply = p
    return [
        # token, requested shard count, box lo, box hi
        ("x", _i([(e[0], len(e[1]), *e[2][0], *e[2][1]) for e in entries])),
        ("s", _i([s for e in entries for s in e[1]])),
    ]


def _cols_bulk_ack(p):
    return [("m", _i(p))]  # (token, worker_id)


def _cols_insert_batch_ack(p):
    acked, worker_id, nacked = p
    return [
        ("a", _i(acked)),
        ("n", _i(nacked).reshape(-1, 2)),  # token, shard
        ("m", _i([worker_id])),
    ]


def _cols_query_result_batch(p):
    replies, worker_id = p
    return [
        # token, count, searched, missing, worker
        ("x", _i([(r[0], r[1][0], r[2], r[3], worker_id) for r in replies])),
        ("g", _f([r[1][1:] for r in replies])),  # total, min, max
    ]


# size-only builders ---------------------------------------------------------


def _cols_client_insert_batch(p):
    rows, _reply = p
    return [
        ("o", _i([_op(r[0]) for r in rows])),
        ("c", _i([r[1] for r in rows])),
        ("v", _f([r[2] for r in rows])),
    ]


def _cols_client_query_batch(p):
    rows, _reply = p
    if any(getattr(q, "group_levels", None) for _, q, _ in rows):
        return None  # rollup-built group queries: no fixed column shape
    nan = float("nan")
    # op id, box lo, box hi
    x = [(_op(op), *q.box.lo.tolist(), *q.box.hi.tolist()) for op, q, _ in rows]
    # coverage, staleness budget (nan: none)
    g = [
        (q.coverage, nan if q.max_staleness is None else q.max_staleness)
        for _, q, _ in rows
    ]
    return [("x", _i(x)), ("g", _f(g))]


def _cols_insert_failed(p):
    return [("m", _i([_op(p[0])]))]


def _cols_insert_done_batch(p):
    return [("o", _i([_op(x) for x in p[0]]))]


def _cols_query_done(p):
    op_id, submit_time, agg, searched, coverage, achieved, staleness, source = p
    return [
        ("m", _i([_op(op_id), agg.count, searched, len(str(source))])),
        (
            "g",
            _f(
                [
                    submit_time,
                    agg.total,
                    agg.vmin,
                    agg.vmax,
                    coverage,
                    achieved,
                    staleness,
                ]
            ),
        ),
    ]


def _repl_row_cols(rows):
    return [
        ("c", _i(np.stack([r[0] for r in rows])) if rows else _i([])),
        ("v", _f([r[1] for r in rows])),
        ("o", _i([_op(r[2]) for r in rows])),
    ]


def _cols_replica_batch(p):
    sid, epoch, seq, rows, t_created, _sender = p
    return _repl_row_cols(rows) + [
        ("m", _i([sid, epoch, seq])),
        ("g", _f([t_created])),
    ]


def _cols_replica_ack(p):
    # (shard_id, epoch, acked_seq, worker_id) -- worker<->worker control
    return [("m", _i([int(x) for x in p[:4]]))]


def _cols_primary_handoff(p):
    sid, rows, _src = p
    return _repl_row_cols(rows) + [("m", _i([sid]))]


def _cols_handoff_ack(p):
    return [("m", _i([p[0]]))]


_BUILDERS: dict[str, Callable] = {
    "insert_batch": _cols_insert_batch,
    "bulk_insert": _cols_bulk_insert,
    "query_batch": _cols_query_batch,
    "insert_batch_ack": _cols_insert_batch_ack,
    "bulk_ack": _cols_bulk_ack,
    "query_result_batch": _cols_query_result_batch,
    "client_insert_batch": _cols_client_insert_batch,
    "client_query_batch": _cols_client_query_batch,
    "insert_failed": _cols_insert_failed,
    "insert_done_batch": _cols_insert_done_batch,
    "query_done": _cols_query_done,
    "replica_batch": _cols_replica_batch,
    "replica_ack": _cols_replica_ack,
    "primary_handoff": _cols_primary_handoff,
    "handoff_ack": _cols_handoff_ack,
}

_KIND_CODES = {k: i for i, k in enumerate(sorted(DATA_KINDS))}
_CODE_KINDS = {i: k for k, i in _KIND_CODES.items()}


# -- envelope ----------------------------------------------------------------


def _reply_name(kind: str, payload) -> str:
    if kind in REQUEST_KINDS or kind in _SIZE_REQUEST:
        reply = payload[-1]
        return getattr(reply, "name", "") or ""
    return ""


def _envelope(kind_code: int, route: str, reply: str) -> bytes:
    rb = route.encode("utf-8")
    pb = reply.encode("utf-8")
    return struct.pack("<BB", kind_code, len(rb)) + rb + struct.pack("<B", len(pb)) + pb


def _envelope_len(route: str, reply: str) -> int:
    return 3 + len(route.encode("utf-8")) + len(reply.encode("utf-8"))


# -- entity-aware pickle sizing (control plane) ------------------------------


class _SizePickler(pickle.Pickler):
    """Sizes control payloads as the mp backend would ship them:
    entities travel as their registry names, never their state."""

    def persistent_id(self, obj):
        from ..cluster.transport import Entity

        if isinstance(obj, Entity):
            return getattr(obj, "name", "entity")
        return None


def _pickled_size(payload) -> int:
    buf = io.BytesIO()
    try:
        _SizePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    except Exception:
        return 128  # unsizeable payload: keep the legacy estimate
    return buf.getbuffer().nbytes


# -- public API --------------------------------------------------------------


def wire_size(kind: str, payload, dst_name: str = "") -> int:
    """Exact wire length of this message's serialized frame.

    Column-codable kinds are measured arithmetically (no buffers are
    built); reply kinds include the destination-name routing slot their
    mp frame carries.  Control kinds fall back to the exact length of
    the entity-stripped pickle plus the envelope.
    """
    builder = _BUILDERS.get(kind)
    if builder is not None:
        cols = builder(payload)
        if cols is not None:
            reply = _reply_name(kind, payload)
            return _envelope_len(dst_name, reply) + measure_columns(cols)
    _stats["size_pickled"] += 1
    return _envelope_len("", "") + _pickled_size(payload)


def encode(kind: str, payload, route: str = "") -> bytes:
    """Encode a data-plane message as an envelope + column frame."""
    if kind not in DATA_KINDS:
        _stats["data_pickled"] += 1  # the spy: this must never happen
        raise ValueError(f"no data-plane codec for message kind {kind!r}")
    cols = _BUILDERS[kind](payload)
    blob = _envelope(
        _KIND_CODES[kind], route, _reply_name(kind, payload)
    ) + encode_columns(cols, compress=False)
    note_data_frame(len(blob))
    return blob


def decode(blob: bytes, resolve: Callable[[str], object]) -> tuple:
    """Decode a data-plane frame -> ``(kind, payload, route)``.

    ``resolve(name)`` maps an entity name to a live object (the parent
    registry, or a child-side reply proxy factory); it is applied to
    the embedded reply-to name of request kinds.
    """
    code, rlen = struct.unpack_from("<BB", blob, 0)
    pos = 2
    route = blob[pos : pos + rlen].decode("utf-8")
    pos += rlen
    (plen,) = struct.unpack_from("<B", blob, pos)
    pos += 1
    reply_name = blob[pos : pos + plen].decode("utf-8")
    pos += plen
    kind = _CODE_KINDS[code]
    cols = decode_columns(blob[pos:])
    note_data_frame(len(blob))
    reply = resolve(reply_name) if reply_name else None

    if kind == "insert_batch":
        entries = [
            (sid, c, v, token, op, None)
            for (sid, token, op), c, v in zip(
                cols["x"].tolist(), cols["c"], cols["v"].tolist()
            )
        ]
        return kind, (entries, reply), route
    if kind == "bulk_insert":
        m = cols["m"]
        batch = RecordBatch(cols["c"], cols["v"], copy=True)
        return kind, (int(m[0]), batch, int(m[1]), reply), route
    if kind == "query_batch":
        sids = cols["s"].tolist()
        entries = []
        pos = 0
        for token, n, *box in cols["x"].tolist():
            d = len(box) // 2
            entries.append(
                (token, sids[pos : pos + n], (tuple(box[:d]), tuple(box[d:])), None)
            )
            pos += n
        return kind, (entries, reply), route
    if kind == "bulk_ack":
        return kind, tuple(cols["m"].tolist()), route
    if kind == "insert_batch_ack":
        return kind, (
            cols["a"].tolist(),
            int(cols["m"][0]),
            [tuple(pair) for pair in cols["n"].tolist()],
        ), route
    if kind == "query_result_batch":
        x = cols["x"].tolist()
        replies = [
            (token, (count, *floats), searched, missing)
            for (token, count, searched, missing, _w), floats in zip(
                x, cols["g"].tolist()
            )
        ]
        return kind, (replies, x[0][4]), route
    raise AssertionError(f"unhandled kind {kind!r}")  # pragma: no cover
