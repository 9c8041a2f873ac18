"""Columnar shard frames: Arrow-IPC-style column-buffer serialisation.

Shards cross the (simulated) wire for checkpoint, migrate, restore and
replica seeding.  A *column frame* carries the shard's columns as raw
little-endian buffers behind a self-describing schema header -- the
Arrow IPC idea scaled down to this library's three column types:

========  ======================================================
offset    field
========  ======================================================
0         magic ``b"VOLC"``
4         u16 version (currently 2; version 1 is the magic-less
          legacy :meth:`~repro.olap.records.RecordBatch.to_bytes`
          layout, recognised by the *absence* of the magic)
6         u16 flags (bit 0: body zlib-compressed, bit 1: body
          lz4-compressed; other bits reserved and rejected)
8         u32 header length ``H``
12        u64 raw (uncompressed) body length
20        u64 stored body length
28        header: u16 column count, then per-column records
28+H      padding to the next 8-byte boundary
body      column buffers, each 8-byte aligned within the body
end-4     u32 crc32 over everything before it
========  ======================================================

Per-column header record: ``u8`` name length + UTF-8 name, ``u8``
logical dtype code, ``u8`` stored dtype code, ``u8`` ndim, ``u64``
rows, ``u32`` second dimension, ``i64`` bias, ``u64`` body offset,
``u64`` stored byte count.

int64 columns are *frame-of-reference narrowed*: the column minimum is
stored as ``bias`` and the deltas as uint8/16/32 when their range
permits, which alone cuts coordinate bytes 2-8x before compression.
Decoding widens back losslessly via wrap-around uint64 arithmetic.
float64 and uint64 buffers are stored verbatim (bit-exact, including
NaN payloads).

When the body is uncompressed, decoded unnarrowed columns are
*zero-copy*: read-only numpy views directly into the received blob,
valid because every buffer is 8-byte aligned within the frame.
Compression is optional and "store-if-smaller": lz4 when the optional
``lz4`` package is importable, else stdlib zlib, else none.

Any structural violation -- truncation, bad magic, unknown version or
flags, out-of-bounds buffer, checksum mismatch -- raises
:class:`FrameError` rather than desyncing into garbage.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .records import RecordBatch

try:  # optional accelerator; absent in the CI/test image
    import lz4.frame as _lz4  # pragma: no cover
except ImportError:  # pragma: no cover
    _lz4 = None

__all__ = [
    "FrameError",
    "MAGIC",
    "VERSION",
    "encode_columns",
    "decode_columns",
    "measure_columns",
    "encode_batch",
    "decode_batch",
    "is_column_frame",
]

MAGIC = b"VOLC"
VERSION = 2

_FLAG_ZLIB = 1
_FLAG_LZ4 = 2
_KNOWN_FLAGS = _FLAG_ZLIB | _FLAG_LZ4

_PREAMBLE = struct.Struct("<4sHHIQQ")  # magic, version, flags, H, raw, stored
_COLHEAD = struct.Struct("<BBBQIqQQ")  # after the name: codes/shape/bias/span
_CRC = struct.Struct("<I")

# logical dtype codes (what the column means) and stored codes (what is
# actually in the buffer; 3-5 only ever appear as narrowed int64)
_DTYPES = {0: np.int64, 1: np.float64, 2: np.uint64}
_STORED = {**_DTYPES, 3: np.uint8, 4: np.uint16, 5: np.uint32}
_CODES = {np.dtype(np.int64): 0, np.dtype(np.float64): 1, np.dtype(np.uint64): 2}
_ITEMSIZES = {code: np.dtype(dt).itemsize for code, dt in _STORED.items()}

_U64_MASK = (1 << 64) - 1

#: an int64 column of at most this many values finds its range in
#: Python: ``tolist`` with ``min`` and ``max`` costs less than two numpy
#: reductions there, and a message's columns hold a handful of values
_SMALL = 48


class FrameError(ValueError):
    """A column frame is truncated, corrupted, or unsupported."""


def is_column_frame(blob: bytes) -> bool:
    """True when ``blob`` starts with the column-frame magic."""
    return blob[:4] == MAGIC


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _bounds(arr: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of a non-empty int64 column as Python ints: by
    ``tolist`` up to :data:`_SMALL` values, else by numpy reductions --
    the same two ints either way."""
    if arr.size <= _SMALL:
        vals = arr.ravel().tolist()
        return min(vals), max(vals)
    return int(arr.min()), int(arr.max())


def _stored_code(lo: int, hi: int) -> int:
    """The stored dtype code of an int64 column spanning ``[lo, hi]``:
    the narrowest unsigned width its deltas fit, else int64 (0)."""
    rng = hi - lo
    if rng < 1 << 8:
        return 3
    if rng < 1 << 16:
        return 4
    if rng < 1 << 32:
        return 5
    return 0


def _narrow(arr: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Frame-of-reference narrowing for int64: (stored_code, bias, buffer)."""
    if arr.size == 0:
        return 0, 0, arr
    lo, hi = _bounds(arr)
    code = _stored_code(lo, hi)
    if not code:
        return 0, 0, arr
    # wrap-around uint64 subtraction is exact for any int64 min/max pair
    delta = arr.view(np.uint64) - np.uint64(lo & _U64_MASK)
    return code, lo, delta.astype(_STORED[code])


def _widen(stored: np.ndarray, logical_code: int, bias: int) -> np.ndarray:
    if logical_code != 0:
        return stored
    out = stored.astype(np.uint64) + np.uint64(bias & _U64_MASK)
    return out.view(np.int64)


def encode_columns(
    columns: list[tuple[str, np.ndarray]], *, compress: bool = True
) -> bytes:
    """Encode named columns into one column frame.

    Columns must be 1-D or 2-D arrays of int64, float64 or uint64 with
    unique names.  ``compress=False`` guarantees a byte-stable frame
    (used for golden files); otherwise the smaller of the raw and
    compressed body is stored.
    """
    header = bytearray(struct.pack("<H", len(columns)))
    buffers: list[bytes] = []
    offset = 0
    seen: set[str] = set()
    for name, arr in columns:
        if name in seen:
            raise ValueError(f"duplicate column name {name!r}")
        seen.add(name)
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _CODES:
            raise ValueError(f"unsupported column dtype {arr.dtype}")
        if arr.ndim not in (1, 2):
            raise ValueError(f"column {name!r} must be 1-D or 2-D")
        logical = _CODES[arr.dtype]
        if logical == 0:
            stored_code, bias, buf_arr = _narrow(arr)
        else:
            stored_code, bias, buf_arr = logical, 0, arr
        buf = buf_arr.tobytes()
        rows = arr.shape[0]
        dim2 = arr.shape[1] if arr.ndim == 2 else 1
        name_b = name.encode("utf-8")
        if len(name_b) > 255:
            raise ValueError(f"column name too long: {name!r}")
        header += struct.pack("<B", len(name_b)) + name_b
        header += _COLHEAD.pack(
            logical, stored_code, arr.ndim, rows, dim2, bias, offset, len(buf)
        )
        buffers.append(buf)
        offset = _align8(offset + len(buf))

    raw = bytearray()
    for buf in buffers:
        raw += buf
        raw += b"\0" * (_align8(len(raw)) - len(raw))
    raw = bytes(raw)

    flags = 0
    body = raw
    if compress and raw:
        if _lz4 is not None:  # pragma: no cover - lz4 absent in CI image
            packed = _lz4.compress(raw)
            if len(packed) < len(raw):
                flags, body = _FLAG_LZ4, packed
        else:
            packed = zlib.compress(raw, 1)
            if len(packed) < len(raw):
                flags, body = _FLAG_ZLIB, packed

    head = _PREAMBLE.pack(MAGIC, VERSION, flags, len(header), len(raw), len(body))
    pad = b"\0" * (_align8(_PREAMBLE.size + len(header)) - _PREAMBLE.size - len(header))
    out = head + bytes(header) + pad + body
    return out + _CRC.pack(zlib.crc32(out))


def measure_columns(columns: list[tuple[str, np.ndarray]]) -> int:
    """Exact ``len(encode_columns(columns, compress=False))`` without
    building the frame.

    This is what message-size accounting charges the transport for
    data-plane payloads: the arithmetic mirrors the encoder's layout
    (narrowing decision, per-buffer 8-byte alignment, header, crc), so
    a frame actually put on a pipe or socket weighs exactly this many
    bytes.  It runs on every message, so a small column's range is
    found without numpy reductions (:func:`_bounds`) and an ASCII
    name's UTF-8 length is its length.
    """
    header = 2
    offset = 0
    for name, arr in columns:
        arr = np.asarray(arr)
        code = _CODES.get(arr.dtype)
        if code is None:
            raise ValueError(f"unsupported column dtype {arr.dtype}")
        if arr.ndim not in (1, 2):
            raise ValueError(f"column {name!r} must be 1-D or 2-D")
        if code == 0 and arr.size:
            itemsize = _ITEMSIZES[_stored_code(*_bounds(arr))]
        else:
            itemsize = arr.dtype.itemsize
        name_len = len(name) if name.isascii() else len(name.encode("utf-8"))
        header += 1 + name_len + _COLHEAD.size
        offset = _align8(offset + arr.size * itemsize)
    return _align8(_PREAMBLE.size + header) + offset + _CRC.size


def decode_columns(blob: bytes) -> dict[str, np.ndarray]:
    """Decode a column frame back into ``{name: array}``.

    Raises :class:`FrameError` on truncation, corruption, or any
    unsupported version/flag/dtype.  Unnarrowed columns of an
    uncompressed frame are returned as read-only views into ``blob``.
    """
    if len(blob) < _PREAMBLE.size + _CRC.size:
        raise FrameError("frame truncated: shorter than preamble")
    magic, version, flags, hlen, raw_len, stored_len = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise FrameError("bad magic: not a column frame")
    if version != VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"unknown frame flags 0x{flags:x}")
    body_off = _align8(_PREAMBLE.size + hlen)
    total = body_off + stored_len + _CRC.size
    if len(blob) != total:
        raise FrameError(
            f"frame truncated: expected {total} bytes, got {len(blob)}"
        )
    (crc,) = _CRC.unpack_from(blob, total - _CRC.size)
    if zlib.crc32(blob[: total - _CRC.size]) != crc:
        raise FrameError("frame corrupted: checksum mismatch")

    header = memoryview(blob)[_PREAMBLE.size : _PREAMBLE.size + hlen]
    body: memoryview | bytes = memoryview(blob)[body_off : body_off + stored_len]
    if flags & _FLAG_LZ4:
        if _lz4 is None:
            raise FrameError("frame is lz4-compressed but lz4 is unavailable")
        body = _lz4.decompress(bytes(body))  # pragma: no cover
    elif flags & _FLAG_ZLIB:
        try:
            body = zlib.decompress(bytes(body))
        except zlib.error as exc:
            raise FrameError(f"frame corrupted: {exc}") from exc
    if len(body) != raw_len:
        raise FrameError(
            f"body length mismatch: expected {raw_len}, got {len(body)}"
        )

    try:
        (ncols,) = struct.unpack_from("<H", header, 0)
    except struct.error as exc:
        raise FrameError("frame corrupted: header truncated") from exc
    pos = 2
    out: dict[str, np.ndarray] = {}
    for _ in range(ncols):
        try:
            (name_len,) = struct.unpack_from("<B", header, pos)
            name = bytes(header[pos + 1 : pos + 1 + name_len]).decode("utf-8")
            if len(name.encode("utf-8")) != name_len:
                raise FrameError("frame corrupted: header truncated")
            (
                logical,
                stored_code,
                ndim,
                rows,
                dim2,
                bias,
                offset,
                nbytes,
            ) = _COLHEAD.unpack_from(header, pos + 1 + name_len)
        except (struct.error, UnicodeDecodeError) as exc:
            raise FrameError("frame corrupted: header truncated") from exc
        pos += 1 + name_len + _COLHEAD.size
        if logical not in _DTYPES or stored_code not in _STORED:
            raise FrameError(f"unknown dtype code {logical}/{stored_code}")
        if ndim not in (1, 2):
            raise FrameError(f"bad column rank {ndim}")
        stored_dt = np.dtype(_STORED[stored_code])
        count = rows * dim2
        if nbytes != count * stored_dt.itemsize:
            raise FrameError(
                f"column {name!r}: buffer is {nbytes} bytes, "
                f"shape needs {count * stored_dt.itemsize}"
            )
        if offset % 8 or offset + nbytes > raw_len:
            raise FrameError(f"column {name!r}: buffer out of bounds")
        stored = np.frombuffer(body, dtype=stored_dt, count=count, offset=offset)
        arr = _widen(stored, logical, bias)
        if arr.dtype != _DTYPES[logical]:
            arr = arr.astype(_DTYPES[logical])
        if ndim == 2:
            arr = arr.reshape(rows, dim2)
        out[name] = arr
    if pos != hlen:
        raise FrameError("frame corrupted: header size mismatch")
    return out


# -- RecordBatch convenience (the shard serialisation entry points) ----------


def encode_batch(batch: RecordBatch, *, compress: bool = True) -> bytes:
    """Serialize a record batch as a column frame."""
    return encode_columns(
        [("coords", batch.coords), ("measures", batch.measures)],
        compress=compress,
    )


def decode_batch(blob: bytes) -> RecordBatch:
    """Decode a shard blob: column frame (v2) or legacy v1 layout.

    Version sniffing is by magic: v1 blobs start with a little-endian
    row count, which cannot collide with ``b"VOLC"`` for any realistic
    shard (it would take ~1.13e9 rows).  A blob without the magic must
    be exactly as long as its v1 ``(n, d)`` header says, so a frame
    with a damaged magic raises :class:`FrameError` like any other.
    """
    if is_column_frame(blob):
        cols = decode_columns(blob)
        try:
            return RecordBatch(cols["coords"], cols["measures"])
        except KeyError as exc:
            raise FrameError(f"frame is missing column {exc}") from exc
    if len(blob) >= 16:
        n, d = np.frombuffer(blob[:16], dtype=np.int64).tolist()
        if n >= 0 and d >= 0 and len(blob) == 16 + 8 * n * (d + 1):
            return RecordBatch.from_bytes(blob)
    raise FrameError(
        f"not a column frame, nor a v1 blob of its header's length ({len(blob)} B)"
    )
