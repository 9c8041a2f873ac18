"""Property and fuzz tests for the columnar shard frame codec.

The codec (:mod:`repro.olap.colframe`) is the only thing standing
between a shard and garbage on every checkpoint/migrate/restore/seed,
so it gets both treatments:

* a seeded-fuzz wall that always runs (CI installs only numpy+pytest),
  sweeping random column sets, truncations, and bit flips;
* Hypothesis properties, when the package is importable, minimising the
  same invariants over adversarial shapes and values.

The invariant everywhere is *bit-for-bit*: ``decode(encode(x)) == x``
including NaN payloads and signed zeros, and every structurally broken
frame raises :class:`~repro.olap.colframe.FrameError` instead of
desyncing into wrong data.
"""

import numpy as np
import pytest

from repro.core import ArrayStore, HilbertPDCTree, TreeConfig
from repro.olap import colframe
from repro.olap.colframe import (
    MAGIC,
    FrameError,
    decode_batch,
    decode_columns,
    encode_batch,
    encode_columns,
    is_column_frame,
    measure_columns,
)
from repro.olap.records import RecordBatch

from .conftest import make_schema, random_batch

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis present locally
    HAS_HYPOTHESIS = False


def assert_bit_identical(a: np.ndarray, b: np.ndarray) -> None:
    """Equality that treats NaN payloads and -0.0 as distinct values."""
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def roundtrip(columns, compress=True):
    blob = encode_columns(columns, compress=compress)
    out = decode_columns(blob)
    assert set(out) == {name for name, _ in columns}
    for name, arr in columns:
        assert_bit_identical(np.ascontiguousarray(arr), out[name])
    return blob, out


# -- deterministic round-trip cases -----------------------------------------


class TestRoundTrip:
    def test_empty_columns(self):
        roundtrip(
            [
                ("coords", np.empty((0, 3), dtype=np.int64)),
                ("measures", np.empty(0, dtype=np.float64)),
                ("hwords", np.empty((0, 2), dtype=np.uint64)),
            ]
        )

    def test_singleton_leaf(self):
        roundtrip(
            [
                ("coords", np.array([[1, -2, 3]], dtype=np.int64)),
                ("measures", np.array([0.5])),
            ]
        )

    def test_full_leaf_multiword_keys(self):
        rng = np.random.default_rng(7)
        n = 256
        roundtrip(
            [
                ("coords", rng.integers(-(2**40), 2**40, (n, 5)).astype(np.int64)),
                ("measures", rng.random(n)),
                (
                    "hwords",
                    rng.integers(0, 2**63, (n, 3)).astype(np.uint64) * np.uint64(2),
                ),
            ]
        )

    def test_nan_inf_and_signed_zero_measures(self):
        m = np.array(
            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, 5e-324]
        )
        blob, out = roundtrip([("measures", m)])
        # distinct NaN payloads survive too
        weird = np.array([np.nan], dtype=np.float64)
        weird_raw = weird.view(np.uint64)
        weird_raw[0] |= np.uint64(0xDEAD)
        _, out = roundtrip([("m", weird)])

    def test_int64_extremes_defeat_narrowing(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        roundtrip([("c", np.array([lo, hi, 0, -1, 1], dtype=np.int64))])

    def test_narrowing_across_sign_wrap(self):
        # range fits uint8 but the values straddle 0 and int64 boundaries
        for base in (-5, np.iinfo(np.int64).min, np.iinfo(np.int64).max - 100):
            arr = np.arange(100, dtype=np.int64) + np.int64(base)
            blob, _ = roundtrip([("c", arr)], compress=False)
            # the buffer really did narrow: frame much smaller than raw
            assert len(blob) < arr.nbytes

    def test_constant_column_narrows_to_uint8(self):
        arr = np.full(1000, 123456789, dtype=np.int64)
        blob, _ = roundtrip([("c", arr)], compress=False)
        assert len(blob) < 1200  # ~1 byte/row + framing

    def test_uint64_full_range(self):
        arr = np.array([0, 1, 2**64 - 1, 2**63], dtype=np.uint64)
        roundtrip([("w", arr)])

    def test_compress_is_store_if_smaller(self):
        # incompressible noise: stored raw, flags stay 0
        rng = np.random.default_rng(3)
        noise = rng.integers(0, 2**63, 500, dtype=np.int64) * 2 - 1
        raw = encode_columns([("c", noise)], compress=True)
        flags = int.from_bytes(raw[6:8], "little")
        assert flags == 0
        # compressible data: flags set, frame smaller
        smooth = np.zeros(500, dtype=np.float64)
        packed = encode_columns([("m", smooth)], compress=True)
        plain = encode_columns([("m", smooth)], compress=False)
        assert len(packed) < len(plain)
        assert int.from_bytes(packed[6:8], "little") != 0
        assert_bit_identical(decode_columns(packed)["m"], smooth)

    def test_uncompressed_frames_are_byte_stable(self):
        rng = np.random.default_rng(11)
        cols = [
            ("coords", rng.integers(0, 1000, (64, 4)).astype(np.int64)),
            ("measures", rng.random(64)),
        ]
        assert encode_columns(cols, compress=False) == encode_columns(
            cols, compress=False
        )

    def test_zero_copy_views_into_blob(self):
        m = np.array([np.pi, np.e, 42.0])
        blob = encode_columns([("m", m)], compress=False)
        out = decode_columns(blob)["m"]
        assert not out.flags.writeable
        assert_bit_identical(out, m)

    def test_noncontiguous_input(self):
        arr = np.arange(40, dtype=np.int64).reshape(10, 4)[:, ::2]
        _, out = roundtrip([("c", arr)])
        assert_bit_identical(out["c"], np.ascontiguousarray(arr))


class TestEncodeValidation:
    def test_duplicate_names_rejected(self):
        a = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate"):
            encode_columns([("x", a), ("x", a)])

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            encode_columns([("x", np.zeros(3, dtype=np.int32))])

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            encode_columns([("x", np.zeros((2, 2, 2), dtype=np.int64))])


# -- structural fault injection ---------------------------------------------


def small_frame(compress=False) -> bytes:
    rng = np.random.default_rng(5)
    return encode_columns(
        [
            ("coords", rng.integers(0, 50, (6, 2)).astype(np.int64)),
            ("measures", rng.random(6)),
        ],
        compress=compress,
    )


class TestCorruption:
    @pytest.mark.parametrize("compress", [False, True])
    def test_every_truncation_raises(self, compress):
        blob = small_frame(compress)
        for cut in range(len(blob)):
            with pytest.raises(FrameError):
                decode_columns(blob[:cut])

    @pytest.mark.parametrize("compress", [False, True])
    def test_every_single_byte_flip_raises(self, compress):
        """crc32 catches any single-byte error anywhere in the frame."""
        blob = bytearray(small_frame(compress))
        for i in range(len(blob)):
            broken = blob.copy()
            broken[i] ^= 0x41
            with pytest.raises(FrameError):
                decode_columns(bytes(broken))

    def test_trailing_garbage_raises(self):
        with pytest.raises(FrameError):
            decode_columns(small_frame() + b"\0")

    def test_not_a_frame(self):
        with pytest.raises(FrameError):
            decode_columns(b"definitely not a frame" + b"\0" * 40)
        assert not is_column_frame(b"NOPE")
        assert is_column_frame(MAGIC + b"anything")

    def test_empty_blob(self):
        with pytest.raises(FrameError):
            decode_columns(b"")


# -- batch entry points and v1 fallback --------------------------------------


class TestBatchCodec:
    def test_batch_roundtrip(self):
        schema = make_schema()
        batch = random_batch(schema, 300, seed=1)
        out = decode_batch(encode_batch(batch))
        assert_bit_identical(out.coords, batch.coords)
        assert_bit_identical(out.measures, batch.measures)

    def test_empty_batch_roundtrip(self):
        out = decode_batch(encode_batch(RecordBatch.empty(4)))
        assert out.coords.shape == (0, 4)

    def test_v1_legacy_blob_decodes(self):
        schema = make_schema()
        batch = random_batch(schema, 120, seed=2)
        out = decode_batch(batch.to_bytes())
        assert_bit_identical(out.coords, batch.coords)
        assert_bit_identical(out.measures, batch.measures)

    @pytest.mark.parametrize("byte", [0, 1, 3])
    def test_damaged_magic_raises_frame_error(self, byte):
        """A frame whose magic is hit falls to the v1 reader, whose
        length check must reject it as a FrameError."""
        blob = bytearray(encode_batch(random_batch(make_schema(), 40, seed=6)))
        blob[byte] ^= 0x41
        with pytest.raises(FrameError):
            decode_batch(bytes(blob))

    @pytest.mark.parametrize("extra", [1, 8])
    def test_v1_blob_with_trailing_bytes_raises(self, extra):
        blob = random_batch(make_schema(), 40, seed=7).to_bytes()
        with pytest.raises(FrameError):
            decode_batch(blob + b"\0" * extra)

    def test_missing_column_raises(self):
        blob = encode_columns([("coords", np.zeros((1, 2), dtype=np.int64))])
        with pytest.raises(FrameError, match="missing column"):
            decode_batch(blob)

    def test_frame_beats_v1_size(self):
        """The headline claim: frames are >= 2x smaller on typical data."""
        schema = make_schema()
        batch = random_batch(schema, 2000, seed=3)
        assert len(batch.to_bytes()) >= 2 * len(encode_batch(batch))

    def test_store_serialize_is_a_frame(self):
        schema = make_schema()
        batch = random_batch(schema, 200, seed=4)
        for cls in (HilbertPDCTree, ArrayStore):
            store = cls.from_batch(schema, batch, TreeConfig(leaf_capacity=16))
            blob = store.serialize()
            assert is_column_frame(blob)
            back = cls.deserialize(schema, blob, TreeConfig(leaf_capacity=16))
            assert len(back) == len(store)

    def test_serialize_uses_no_pickle(self, monkeypatch):
        """The shard transfer hot path must never touch pickle."""
        import pickle

        def boom(*a, **k):  # pragma: no cover - called means failure
            raise AssertionError("pickle on the serialization hot path")

        monkeypatch.setattr(pickle, "dumps", boom)
        monkeypatch.setattr(pickle, "loads", boom)
        monkeypatch.setattr(pickle, "dump", boom)
        monkeypatch.setattr(pickle, "load", boom)
        schema = make_schema()
        batch = random_batch(schema, 150, seed=5)
        store = HilbertPDCTree.from_batch(schema, batch)
        blob = store.serialize()
        back = HilbertPDCTree.deserialize(schema, blob, None)
        assert len(back) == 150


# -- seeded fuzz (always on) --------------------------------------------------


FUZZ_DTYPES = [np.int64, np.float64, np.uint64]


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_roundtrip(seed):
    """Random column sets: shapes, dtypes, ranges, NaN/inf injection."""
    rng = np.random.default_rng(1000 + seed)
    ncols = int(rng.integers(1, 5))
    columns = []
    for i in range(ncols):
        dt = FUZZ_DTYPES[int(rng.integers(0, 3))]
        n = int(rng.integers(0, 200))
        if rng.random() < 0.5:
            shape = (n, int(rng.integers(1, 6)))
        else:
            shape = (n,)
        if dt is np.float64:
            arr = rng.standard_normal(shape) * 10.0 ** float(
                rng.integers(-300, 300)
            )
            flat = arr.reshape(-1)
            for special in (np.nan, np.inf, -np.inf, -0.0):
                if flat.size and rng.random() < 0.5:
                    flat[rng.integers(0, flat.size)] = special
        elif dt is np.int64:
            span = int(rng.integers(1, 63))
            arr = rng.integers(-(2**span), 2**span, shape, dtype=np.int64)
        else:
            arr = rng.integers(0, 2**63, shape, dtype=np.uint64) * np.uint64(
                2
            ) + np.uint64(int(rng.integers(0, 2)))
        columns.append((f"col{i}", arr))
    roundtrip(columns, compress=bool(rng.random() < 0.5))


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_corruption(seed):
    """Random multi-byte corruption never decodes to wrong data silently."""
    rng = np.random.default_rng(2000 + seed)
    batch = RecordBatch(
        rng.integers(0, 10**6, (50, 3)).astype(np.int64), rng.random(50)
    )
    blob = bytearray(encode_batch(batch, compress=bool(seed % 2)))
    k = int(rng.integers(1, 8))
    for _ in range(k):
        blob[int(rng.integers(0, len(blob)))] ^= int(rng.integers(1, 256))
    try:
        out = decode_batch(bytes(blob))
    except FrameError:
        return  # rejected: the expected outcome
    # astronomically unlikely (crc32 collision); if decode "succeeds"
    # the data must still be byte-identical to count as not-wrong
    assert_bit_identical(out.coords, batch.coords)


# -- sizing: ``measure_columns`` is the unencoded frame's length ---------------

#: column lengths on both sides of the cutoff below which an int64
#: column's range is found in Python
SIZES = (0, 1, 2, colframe._SMALL - 1, colframe._SMALL, colframe._SMALL + 1, 3 * colframe._SMALL)
#: value ranges on both sides of each narrowing width
SPANS = (0, 2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**63 - 1)
I64 = np.iinfo(np.int64)


def sized_column(rng, dtype, n: int, span: int, base: int, width: int) -> np.ndarray:
    """``n`` rows (``width`` 0: a 1-D column) whose values span exactly
    ``[base, base + span]`` (clipped to the dtype) when ``n`` allows."""
    shape = (n, width) if width else (n,)
    size = n * max(width, 1)
    if dtype is np.float64:
        return rng.normal(size=shape) * float(span + 1)
    if dtype is np.uint64:
        lo = min(max(base, 0), 2**64 - 1 - span)
        vals = [lo + int(rng.integers(0, span, endpoint=True)) for _ in range(size)]
    else:
        lo = min(max(base, int(I64.min)), int(I64.max) - span)
        vals = [lo + int(rng.integers(0, span, endpoint=True)) for _ in range(size)]
    if size >= 2:  # pin both ends, so the range is the span
        vals[0], vals[-1] = lo, lo + span
    return np.array(vals, dtype=dtype).reshape(shape)


def assert_sized(columns) -> None:
    """``measure_columns`` equals the unencoded frame's length, and its
    Python and numpy range finders agree on every column."""
    expected = len(encode_columns(columns, compress=False))
    assert measure_columns(columns) == expected
    for _, arr in columns:
        if arr.dtype == np.int64 and arr.size:
            vals = arr.ravel().tolist()
            assert colframe._bounds(arr) == (min(vals), max(vals)) == (
                int(arr.min()),
                int(arr.max()),
            )


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("span", SPANS)
def test_measure_is_the_encoded_length(dtype, span):
    """Every size around the cutoff, 1-D and 2-D, with negative,
    zero-based and extreme bases."""
    rng = np.random.default_rng(span % 9973)
    for n in SIZES:
        for width in (0, 3):
            for base in (int(I64.min), -(2**40), -7, 0, 2**40, int(I64.max)):
                assert_sized([("c", sized_column(rng, dtype, n, span, base, width))])


def test_measure_a_mixed_frame_and_both_range_finders(monkeypatch):
    """Several columns of every dtype in one frame; forcing every
    column through either range finder sizes it the same."""
    rng = np.random.default_rng(11)
    for n in SIZES:
        cols = [
            ("coords", sized_column(rng, np.int64, n, 2**16, -5, 4)),
            ("id", sized_column(rng, np.int64, n, 0, 2**50, 0)),
            ("words", sized_column(rng, np.uint64, n, 2**63 - 1, 0, 2)),
            ("measure", sized_column(rng, np.float64, n, 1, 0, 0)),
        ]
        expected = len(encode_columns(cols, compress=False))
        for small in (-1, 10**9):  # every column by numpy, then by Python
            monkeypatch.setattr(colframe, "_SMALL", small)
            assert measure_columns(cols) == expected
            assert len(encode_columns(cols, compress=False)) == expected


# -- hypothesis properties (skipped when the package is absent) ---------------


if HAS_HYPOTHESIS:

    @st.composite
    def column_sets(draw):
        ncols = draw(st.integers(min_value=1, max_value=4))
        n = draw(st.integers(min_value=0, max_value=64))
        cols = []
        for i in range(ncols):
            kind = draw(st.sampled_from(["i8", "f8", "u8w"]))
            width = draw(st.integers(min_value=1, max_value=4))
            shape = (n, width) if draw(st.booleans()) else (n,)
            size = int(np.prod(shape))
            if kind == "i8":
                vals = draw(
                    st.lists(
                        st.integers(
                            min_value=-(2**63), max_value=2**63 - 1
                        ),
                        min_size=size,
                        max_size=size,
                    )
                )
                arr = np.array(vals, dtype=np.int64).reshape(shape)
            elif kind == "f8":
                vals = draw(
                    st.lists(
                        st.floats(allow_nan=True, allow_infinity=True),
                        min_size=size,
                        max_size=size,
                    )
                )
                arr = np.array(vals, dtype=np.float64).reshape(shape)
            else:
                vals = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=2**64 - 1),
                        min_size=size,
                        max_size=size,
                    )
                )
                arr = np.array(vals, dtype=np.uint64).reshape(shape)
            cols.append((f"c{i}", arr))
        return cols

    @settings(max_examples=50, deadline=None)
    @given(cols=column_sets(), compress=st.booleans())
    def test_property_roundtrip(cols, compress):
        roundtrip(cols, compress=compress)

    @st.composite
    def sized_sets(draw):
        """Columns whose int ranges straddle 2^8, 2^16 and 2^32 around
        every base (negatives, int64 extremes, constants), at lengths on
        both sides of the small-column cutoff, beside float columns."""
        cols = []
        for i in range(draw(st.integers(min_value=1, max_value=3))):
            kind = draw(st.sampled_from([np.int64, np.uint64, np.float64]))
            n = draw(st.sampled_from(SIZES) | st.integers(min_value=0, max_value=2 * colframe._SMALL))
            span = draw(
                st.sampled_from(SPANS)
                | st.builds(lambda w, d: max(2**w + d, 0), st.sampled_from([8, 16, 32]), st.integers(-2, 2))
            )
            base = draw(
                st.sampled_from([int(I64.min), -1, 0, int(I64.max)])
                | st.integers(min_value=int(I64.min), max_value=int(I64.max))
            )
            width = draw(st.sampled_from([0, 1, 5]))
            seed = draw(st.integers(min_value=0, max_value=2**16))
            cols.append(
                (f"c{i}", sized_column(np.random.default_rng(seed), kind, n, span, base, width))
            )
        return cols

    @settings(max_examples=150, deadline=None)
    @given(cols=sized_sets())
    def test_property_measure_is_the_encoded_length(cols):
        assert_sized(cols)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=200),
        prefix_magic=st.booleans(),
    )
    def test_property_arbitrary_bytes_never_crash(data, prefix_magic):
        """decode_columns on arbitrary input: FrameError or a valid dict,
        never an unhandled exception."""
        blob = (MAGIC + data) if prefix_magic else data
        try:
            decode_columns(blob)
        except FrameError:
            pass

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        cut=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_truncation_raises(seed, cut):
        rng = np.random.default_rng(seed)
        blob = encode_columns(
            [("c", rng.integers(0, 100, (8, 2)).astype(np.int64))]
        )
        with pytest.raises(FrameError):
            decode_columns(blob[: cut % len(blob)])
