"""Message sizing, and the one codec of the ``mp`` worker pipe: no pickling.

:func:`wire_size` sizes every message by one rule.  Each kind is
declared once, as a ``NamedTuple``, in :mod:`repro.cluster.wire`; a
message weighs a small envelope plus its fields, by a plan computed once
per declaration from its annotations (docs/runtime.md has the table): a
scalar, or a nested fixed-width declaration, adds a constant; ``bytes``
and ``str`` fields their length; ``np.ndarray`` fields their columns
(one column frame, measured by :func:`~repro.olap.colframe.measure_columns`);
an ``Entity`` its name; a ``list`` each item by its own type.
``reply_to`` rides the envelope and ``object`` fields are never encoded.
Only :class:`~repro.cluster.transport.Transport` sets ``Message.size``.

The nine :data:`PIPE_KINDS` are every frame the ``mp`` worker pipe
carries -- the data plane, ``install_shard`` and the barrier -- each
as that column frame behind that envelope::

    u8 kind code | u8 route len | route | u8 reply len | reply | colframe

``route`` is the destination entity name a worker-originated reply
carries back to the parent; ``reply`` names the payload's ``reply_to``.
Their declarations (:data:`repro.cluster.wire.PAYLOADS`) are the schema,
so encoding reads the arrays the entities hold and decoding hands them
back by name -- **nothing on the pipe is ever pickled**, which
:func:`codec_stats` asserts (``data_pickled`` stays 0) -- and such a
message weighs exactly the bytes the mp backend puts on the pipe.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from ..cluster.transport import Entity
from ..cluster.wire import PAYLOADS
from ..olap.colframe import decode_columns, encode_columns, measure_columns

__all__ = [
    "PIPE_KINDS",
    "REQUEST_KINDS",
    "REPLY_KINDS",
    "encode",
    "decode",
    "wire_size",
    "codec_stats",
    "reset_codec_stats",
]

#: kinds that cross the worker pipe on mp: a request is answered by
#: exactly one reply, and ``install_shard`` by none.  Every other kind is
#: only ever sized: client<->server and worker<->worker hops, and the
#: control plane, stay in the parent process on every backend.
REQUEST_KINDS = frozenset({"insert_batch", "bulk_insert", "query_batch", "barrier"})
REPLY_KINDS = frozenset(
    {"insert_batch_ack", "bulk_ack", "query_result_batch", "barrier_ack"}
)
PIPE_KINDS = REQUEST_KINDS | REPLY_KINDS | {"install_shard"}

_stats = {
    "data_frames": 0,  # column frames encoded or decoded
    "data_bytes": 0,
    "data_pickled": 0,  # MUST stay 0: the zero-pickle invariant
    "control_pickled": 0,  # 0 by construction: no frame has a second format
}


def codec_stats() -> dict:
    return dict(_stats)


def reset_codec_stats() -> None:
    for k in _stats:
        _stats[k] = 0


def note_data_frame(nbytes: int) -> None:
    _stats["data_frames"] += 1
    _stats["data_bytes"] += nbytes


# -- sizing: one plan per declaration -----------------------------------------


class _Plan(NamedTuple):
    fixed: int  # bytes of the scalar fields
    arrays: tuple  # the fields that are the frame's columns
    lengths: tuple  # bytes / str fields
    handles: tuple  # entity fields
    items: tuple  # list fields


@functools.cache
def _plan(cls: type) -> _Plan:
    """The fields of declaration ``cls``, sorted by the rule sizing them."""
    hints = get_type_hints(cls)
    if not hints:
        raise TypeError(f"{cls.__name__} payloads are not a wire declaration")
    fixed, arrays, lengths, handles, items = 0, [], [], [], []
    for name, t in hints.items():
        if get_origin(t) is Union:  # Optional[X]
            t = next(a for a in get_args(t) if a is not type(None))
        if name == "reply_to" or t is object:
            continue
        if t is np.ndarray:
            arrays.append(name)
        elif t in (int, float):
            fixed += 8  # int64 / float64
        elif t in (bytes, str):
            lengths.append(name)
        elif t is Entity:
            handles.append(name)
        elif t is list or get_origin(t) is list:
            items.append(name)
        else:  # a nested declaration: fixed-width only
            sub = _plan(t)
            if sub.arrays or sub.lengths or sub.handles or sub.items:
                raise TypeError(f"{cls.__name__}.{name}: {t.__name__} is not fixed-width")
            fixed += sub.fixed
    return _Plan(fixed, tuple(arrays), tuple(lengths), tuple(handles), tuple(items))


def _weigh(value) -> int:
    """Bytes of a declared value's fields, by its plan."""
    n, arrays, lengths, handles, items = _plan(type(value))
    if arrays:
        n += measure_columns([(f, getattr(value, f)) for f in arrays])
    for f in lengths:
        v = getattr(value, f)
        if v is not None:
            n += len(v)
    for f in handles:
        n += len(getattr(value, f).name)
    for f in items:
        n += sum(_item_size(v) for v in getattr(value, f))
    return n


def _item_size(v) -> int:
    """Bytes of one item of a list field, by its own type."""
    if isinstance(v, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(v, (bytes, str)):
        return len(v)
    if type(v) in (tuple, list):
        return sum(_item_size(x) for x in v)
    return _weigh(v)


_KIND_CODES = {k: i for i, k in enumerate(sorted(PIPE_KINDS))}
_CODE_KINDS = {i: k for k, i in _KIND_CODES.items()}


# -- envelope ----------------------------------------------------------------


def _reply_name(payload) -> str:
    return getattr(getattr(payload, "reply_to", None), "name", "") or ""


def _envelope(kind_code: int, route: str, reply: str) -> bytes:
    rb = route.encode("utf-8")
    pb = reply.encode("utf-8")
    return struct.pack("<BB", kind_code, len(rb)) + rb + struct.pack("<B", len(pb)) + pb


def _utf8_len(name: str) -> int:
    """UTF-8 length of an entity name: an ASCII one's is its length."""
    return len(name) if name.isascii() else len(name.encode("utf-8"))


def _envelope_len(route: str, reply: str) -> int:
    return 3 + _utf8_len(route) + _utf8_len(reply)


# -- public API --------------------------------------------------------------


def wire_size(kind: str, payload, dst_name: str = "") -> int:
    """Wire length of a message to ``dst_name``: the envelope (its
    routing slot holds ``dst_name``, its reply slot the payload's
    ``reply_to``) plus the payload's fields by its declaration's plan,
    measured arithmetically -- no buffer is built.  ``kind`` does not
    enter the size (one declaration may serve several kinds); a payload
    that is not a declaration raises ``TypeError``."""
    return _envelope_len(dst_name, _reply_name(payload)) + _weigh(payload)


def encode(kind: str, payload, route: str = "") -> bytes:
    """Encode a worker-pipe message as an envelope + column frame."""
    if kind not in PIPE_KINDS:
        _stats["data_pickled"] += 1  # the spy: this must never happen
        raise ValueError(f"message kind {kind!r} does not cross the worker pipe")
    columns = [(f, getattr(payload, f)) for f in _plan(type(payload)).arrays]
    blob = _envelope(_KIND_CODES[kind], route, _reply_name(payload)) + encode_columns(
        columns, compress=False
    )
    note_data_frame(len(blob))
    return blob


def decode(blob: bytes, resolve: Callable[[str], object]) -> tuple:
    """Decode a worker-pipe frame -> ``(kind, payload, route)``.

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
