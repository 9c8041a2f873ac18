"""Tests for the classic and compact Hilbert curves.

The compact curve is tested against its ground-truth definition: the
rank of a point among all valid domain points in padded-curve order
(Hamilton & Rau-Chaplin's order-isomorphism theorem).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hilbert import compact_hilbert
from repro.hilbert.compact_hilbert import (
    CompactHilbertCurve,
    HilbertCurve,
    gray_code,
    gray_code_inverse,
    key_from_words,
    words_for_bits,
)


class TestGrayCode:
    def test_first_values(self):
        assert [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_inverse(self):
        for i in range(256):
            assert gray_code_inverse(gray_code(i)) == i

    def test_adjacent_codes_differ_one_bit(self):
        for i in range(255):
            diff = gray_code(i) ^ gray_code(i + 1)
            assert bin(diff).count("1") == 1


class TestHilbertCurve:
    @pytest.mark.parametrize("n,m", [(1, 5), (2, 4), (3, 3), (4, 2), (5, 2)])
    def test_bijective(self, n, m):
        c = HilbertCurve(n, m)
        pts = {c.point(h) for h in range(1 << (n * m))}
        assert len(pts) == 1 << (n * m)

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 2)])
    def test_adjacency(self, n, m):
        """Consecutive indices map to points at L1 distance exactly 1."""
        c = HilbertCurve(n, m)
        prev = c.point(0)
        for h in range(1, 1 << (n * m)):
            cur = c.point(h)
            assert sum(abs(a - b) for a, b in zip(prev, cur)) == 1
            prev = cur

    @pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (6, 2)])
    def test_index_point_roundtrip(self, n, m):
        c = HilbertCurve(n, m)
        step = max(1, (1 << (n * m)) // 500)
        for h in range(0, 1 << (n * m), step):
            assert c.index(c.point(h)) == h

    def test_2d_order_is_classic(self):
        """First-order 2-d curve visits the quadrants in the textbook order."""
        c = HilbertCurve(2, 1)
        # Hamilton's convention: dimension j is bit j of l, giving the
        # U-shaped visit order (0,0) -> (0,1) -> (1,1) -> (1,0).
        assert [c.point(h) for h in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_out_of_range_rejected(self):
        c = HilbertCurve(2, 3)
        with pytest.raises(ValueError):
            c.index((8, 0))
        with pytest.raises(ValueError):
            c.point(64)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            HilbertCurve(0, 3)
        with pytest.raises(ValueError):
            HilbertCurve(2, -1)


class TestCompactHilbertCurve:
    @pytest.mark.parametrize(
        "widths",
        [(1, 2), (2, 1), (2, 3), (3, 1, 2), (1, 1, 3), (2, 2, 2), (0, 2, 1)],
    )
    def test_index_equals_brute_force_rank(self, widths):
        """Ground truth: compact index == rank in padded-curve order."""
        cc = CompactHilbertCurve(widths)
        for p in cc._iter_domain():
            assert cc.index(p) == cc.brute_force_rank(p)

    @pytest.mark.parametrize("widths", [(2, 3), (3, 1, 2), (2, 2, 2)])
    def test_dense_bijection(self, widths):
        """Compact indices are exactly 0 .. 2**total_bits - 1."""
        cc = CompactHilbertCurve(widths)
        idx = sorted(cc.index(p) for p in cc._iter_domain())
        assert idx == list(range(1 << cc.total_bits))

    @pytest.mark.parametrize("widths", [(1, 2), (2, 3), (3, 1, 2), (2, 2, 2)])
    def test_point_inverts_index(self, widths):
        cc = CompactHilbertCurve(widths)
        for p in cc._iter_domain():
            assert cc.point(cc.index(p)) == p

    def test_equal_widths_matches_plain_curve_order(self):
        """With equal widths the compact order equals the plain Hilbert order."""
        cc = CompactHilbertCurve((3, 3))
        plain = HilbertCurve(2, 3)
        pts = list(cc._iter_domain())
        assert sorted(pts, key=cc.index) == sorted(pts, key=plain.index)

    def test_large_widths_do_not_overflow(self):
        """Widths summing past 64 bits work via python ints."""
        cc = CompactHilbertCurve((40, 40, 40))
        p = (2**40 - 1, 0, 2**39)
        h = cc.index(p)
        assert 0 <= h < 1 << 120
        assert cc.point(h) == p

    @pytest.mark.parametrize("dims", [64, 70])
    def test_numpy_rows_past_63_dimensions(self, dims):
        """Fig. 5 sweeps to 64 dimensions, where the masks are Python
        big ints: a numpy row must key like the same row as a list, on
        the scalar path and through the batch kernel's fallback to it."""
        cc = CompactHilbertCurve([1] * dims)
        rng = np.random.default_rng(dims)
        rows = np.vstack([np.ones(dims, dtype=np.int64), rng.integers(0, 2, (3, dims))])
        want = [cc.index(row.tolist()) for row in rows]
        assert want[0] == int("10" * (dims // 2), 2)  # 64: 12297829382473034410
        assert [cc.index(row) for row in rows] == want
        assert cc.index_batch(rows).tolist() == want
        assert HilbertCurve(dims, 1).index(rows[0]) == want[0]

    def test_out_of_range_rejected(self):
        cc = CompactHilbertCurve((2, 3))
        with pytest.raises(ValueError):
            cc.index((4, 0))
        with pytest.raises(ValueError):
            cc.index((0, 0, 0))
        with pytest.raises(ValueError):
            cc.point(1 << 5)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            CompactHilbertCurve(())
        with pytest.raises(ValueError):
            CompactHilbertCurve((0, 0))
        with pytest.raises(ValueError):
            CompactHilbertCurve((-1, 2))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4),
    st.data(),
)
def test_compact_order_isomorphism_property(widths, data):
    """Property: compact index order == padded Hilbert index order."""
    cc = CompactHilbertCurve(widths)
    padded = HilbertCurve(cc.num_dims, cc.max_bits)
    p = tuple(
        data.draw(st.integers(min_value=0, max_value=(1 << w) - 1))
        for w in widths
    )
    q = tuple(
        data.draw(st.integers(min_value=0, max_value=(1 << w) - 1))
        for w in widths
    )
    ci, cj = cc.index(p), cc.index(q)
    pi, pj = padded.index(p), padded.index(q)
    assert (ci < cj) == (pi < pj)
    assert (ci == cj) == (p == q)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=4), st.data())
def test_plain_curve_locality_property(n, m, data):
    """Property: adjacent indices are adjacent points (unit L1 step)."""
    c = HilbertCurve(n, m)
    h = data.draw(st.integers(min_value=0, max_value=(1 << (n * m)) - 2))
    a, b = c.point(h), c.point(h + 1)
    assert sum(abs(x - y) for x, y in zip(a, b)) == 1


# -- the batch kernel (lookup tables up to _TABLE_MAX_DIMS dimensions, the
# -- arithmetic plane step past it) against scalar ``index`` ----------------

CAP = compact_hilbert._TABLE_MAX_DIMS
CHUNK = compact_hilbert._CHUNK_ROWS


def _random_points(widths, rows, seed):
    high = np.array([1 << w for w in widths], dtype=np.uint64)
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=(rows, len(widths)), dtype=np.uint64)


def _assert_batch_matches_scalar(curve, pts, check_rows):
    words = curve.index_batch_words(pts)
    ints = curve.index_batch(pts)
    assert words.shape == (len(pts), words_for_bits(curve.total_bits))
    assert words.dtype == np.uint64 and ints.shape == (len(pts),)
    for i in check_rows:
        want = curve.index([int(v) for v in pts[i]])
        assert key_from_words(words[i]) == ints[i] == want


_widths = st.one_of(
    st.lists(st.integers(0, 63), min_size=1, max_size=CAP),
    st.builds(lambda n, w: [w] * n, st.integers(1, CAP), st.integers(1, 63)),
).filter(lambda ws: max(ws) > 0)


@settings(max_examples=40, deadline=None)
@given(_widths, st.integers(0, 2**32 - 1))
@example([13] * 5, 1)  # 65 bits: the top word holds only a spilled digit
@example([63, 63, 3], 2)  # 129 bits, three words
@example([40, 0, 30], 3)  # 70 bits, a zero-width dimension
@example([7], 4)  # one dimension
@example([63] * CAP, 5)  # the widest table curve
def test_table_kernel_matches_scalar_index(widths, seed):
    curve = CompactHilbertCurve(widths)
    assert curve._plan.tables is not None
    for rows in (1, 2, 63):
        pts = _random_points(widths, rows, seed + rows)
        _assert_batch_matches_scalar(curve, pts, range(rows))
    # more than one chunk: rows either side of the seam, and the ends
    pts = _random_points(widths, CHUNK + 5, seed)
    _assert_batch_matches_scalar(
        curve, pts, (0, CHUNK - 1, CHUNK, CHUNK + 4)
    )


@pytest.mark.parametrize("dims,step_calls", [(CAP, 0), (CAP + 1, 9)])
def test_both_kernel_paths_run_and_agree(monkeypatch, dims, step_calls):
    """Table path at the dims cap, arithmetic path one past it: the
    arithmetic step runs once per bit plane there and never here."""
    widths = [9, 4, 0, 7] + [5] * (dims - 4)
    curve = CompactHilbertCurve(widths)
    assert (curve._plan.tables is not None) == (dims <= CAP)
    calls = []
    real = compact_hilbert._plane_step
    monkeypatch.setattr(
        compact_hilbert,
        "_plane_step",
        lambda *a: calls.append(1) or real(*a),
    )
    pts = _random_points(widths, 40, dims)
    _assert_batch_matches_scalar(curve, pts, range(40))
    assert len(calls) == 2 * step_calls  # index_batch_words + index_batch


@pytest.mark.parametrize("dims", [3, CAP + 1])
def test_batch_kernel_rejects_out_of_range(dims):
    curve = CompactHilbertCurve([4] * dims)
    ok = np.zeros((3, dims), dtype=np.int64)
    curve.index_batch_words(ok)
    for bad in (16, -1):
        pts = ok.copy()
        pts[1, dims - 1] = bad
        with pytest.raises(ValueError):
            curve.index_batch_words(pts)
        with pytest.raises(ValueError):
            curve.index_batch(pts)


def test_batch_kernel_empty_batch():
    curve = CompactHilbertCurve((40, 40, 40))
    empty = np.empty((0, 3), dtype=np.int64)
    words = curve.index_batch_words(empty)
    assert words.shape == (0, 2) and words.dtype == np.uint64
    assert curve.index_batch(empty).shape == (0,)


def test_tables_shared_per_widths():
    a, b = CompactHilbertCurve((5, 3, 4)), CompactHilbertCurve([5, 3, 4])
    other = CompactHilbertCurve((5, 3, 5))
    assert a._plan.tables is b._plan.tables
    assert a._plan.tables is not other._plan.tables
