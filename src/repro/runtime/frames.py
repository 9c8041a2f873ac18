"""Data-plane wire codec: colframe column buffers, zero pickling.

Every message kind that crosses a worker boundary on the ``mp`` backend
is encoded here as a :mod:`repro.olap.colframe` column frame behind a
tiny envelope::

    u8 kind code | u8 route len | route | u8 reply len | reply | colframe

``route`` is the destination entity name a worker-originated reply
carries back to the parent process; ``reply`` names the payload's
``reply_to`` entity.  One generic codec, the declaration is the schema:
a row-carrying payload is a ``NamedTuple`` of
:data:`repro.cluster.wire.PAYLOADS` whose ``np.ndarray`` fields are the
frame's columns in declared order, so encoding reads the arrays the
entities already hold and decoding hands them back under the same names
-- **no data-plane field is ever pickled**, which :func:`codec_stats`
asserts (``data_pickled`` must stay 0).

The same columns give exact message sizes (:func:`wire_size`, via
:func:`repro.olap.colframe.measure_columns`): the simulated transport
charges bandwidth for precisely the bytes the mp backend would put on
the pipe.  Kinds without columns (the rare control plane: splits,
migrations, restores) are sized by an entity-aware pickler -- the exact
length of the control frame mp ships, entities reduced to their names.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Callable, get_type_hints

import numpy as np

from ..cluster.wire import PAYLOADS, f64, i64
from ..olap.colframe import decode_columns, encode_columns, measure_columns

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

#: kinds that cross the worker pipe -- the mp data plane.  Every other
#: kind with columns is only ever sized: client<->server and
#: worker<->worker hops stay in the parent process on every backend.
REQUEST_KINDS = frozenset({"insert_batch", "bulk_insert", "query_batch"})
REPLY_KINDS = frozenset({"insert_batch_ack", "bulk_ack", "query_result_batch"})
DATA_KINDS = REQUEST_KINDS | REPLY_KINDS

#: kind -> names of its payload's array fields == its frame's columns
_COLUMNS = {
    kind: tuple(f for f, t in get_type_hints(cls).items() if t is np.ndarray)
    for kind, cls in PAYLOADS.items()
}

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


# -- size-only builders ------------------------------------------------------
#
# The payloads that are still plain tuples -- ``client_query_batch``
# (it carries ``Query`` objects) and four row-less replies: each builder
# maps one to [(name, array)] columns, message scalars in a packed "m"
# column.


def _cols_client_query_batch(p):
    rows, _reply = p
    if any(getattr(q, "group_levels", None) for _, q, _ in rows):
        return None  # rollup-built group queries: no fixed column shape
    nan = float("nan")
    # op id, box lo, box hi
    x = [(op, *q.box.lo.tolist(), *q.box.hi.tolist()) for op, q, _ in rows]
    # coverage, staleness budget (nan: none)
    g = [
        (q.coverage, nan if q.max_staleness is None else q.max_staleness)
        for _, q, _ in rows
    ]
    return [("x", i64(x)), ("g", f64(g))]


def _cols_id(p):
    return [("m", i64([p[0]]))]  # the op (insert_failed) or shard (handoff_ack) id


def _cols_query_done(p):
    op_id, submit_time, agg, searched, coverage, achieved, staleness, source = p
    return [
        ("m", i64([op_id, agg.count, searched, len(str(source))])),
        ("g", f64([submit_time, agg.total, agg.vmin, agg.vmax, coverage, achieved, staleness])),
    ]


def _cols_replica_ack(p):
    # (shard_id, epoch, acked_seq, worker_id) -- worker<->worker control
    return [("m", i64([int(x) for x in p[:4]]))]


_BUILDERS: dict[str, Callable] = {
    "client_query_batch": _cols_client_query_batch,
    "insert_failed": _cols_id,
    "query_done": _cols_query_done,
    "replica_ack": _cols_replica_ack,
    "handoff_ack": _cols_id,
}


def _columns(kind: str, payload):
    """The frame columns of ``payload``, or ``None`` if it has none."""
    fields = _COLUMNS.get(kind)
    if fields is not None:
        return [(f, getattr(payload, f)) for f in fields]
    builder = _BUILDERS.get(kind)
    return builder(payload) if builder is not None else None


_KIND_CODES = {k: i for i, k in enumerate(sorted(DATA_KINDS))}
_CODE_KINDS = {i: k for k, i in _KIND_CODES.items()}


# -- envelope ----------------------------------------------------------------


def _reply_name(kind: str, payload) -> str:
    if kind == "client_query_batch":
        reply = payload[-1]
    else:
        reply = getattr(payload, "reply_to", None)
    return getattr(reply, "name", "") or ""


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
    cols = _columns(kind, payload)
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
    blob = _envelope(
        _KIND_CODES[kind], route, _reply_name(kind, payload)
    ) + encode_columns(_columns(kind, payload), compress=False)
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
    fields = decode_columns(blob[pos:])
    note_data_frame(len(blob))
    cls = PAYLOADS[kind]
    if "reply_to" in cls._fields:
        fields["reply_to"] = resolve(reply_name) if reply_name else None
    return kind, cls(**fields), route
