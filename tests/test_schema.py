"""Tests for Schema, Query construction, and RecordBatch."""

import numpy as np
import pytest

from repro.olap.hierarchy import Dimension, Hierarchy, Level, flat_dimension
from repro.olap.query import full_query, query_from_levels
from repro.olap.records import RecordBatch, concat_batches
from repro.olap.schema import Schema


def small_schema():
    date = Dimension(
        "date", Hierarchy("date", [Level("year", 8), Level("month", 12), Level("day", 31)])
    )
    store = Dimension(
        "store", Hierarchy("store", [Level("country", 4), Level("city", 16)])
    )
    return Schema([date, store])


class TestSchema:
    def test_num_dims(self):
        assert small_schema().num_dims == 2

    def test_leaf_widths(self):
        s = small_schema()
        assert s.leaf_widths.tolist() == [12, 6]
        assert s.leaf_limits.tolist() == [(1 << 12) - 1, (1 << 6) - 1]

    def test_index_of(self):
        s = small_schema()
        assert s.index_of("date") == 0
        assert s.index_of("store") == 1
        with pytest.raises(KeyError):
            s.index_of("nope")

    def test_dimension_lookup(self):
        s = small_schema()
        assert s.dimension("store").name == "store"

    def test_encode_decode_point(self):
        s = small_schema()
        pt = s.encode_point([(3, 11, 30), (2, 9)])
        assert pt.dtype == np.int64
        assert s.decode_point(pt) == ((3, 11, 30), (2, 9))

    def test_encode_point_wrong_arity(self):
        with pytest.raises(ValueError):
            small_schema().encode_point([(1, 2, 3)])

    def test_validate_coords(self):
        s = small_schema()
        s.validate_coords(np.array([[0, 0], [100, 63]]))
        with pytest.raises(ValueError):
            s.validate_coords(np.array([[1 << 12, 0]]))
        with pytest.raises(ValueError):
            s.validate_coords(np.array([[-1, 0]]))
        with pytest.raises(ValueError):
            s.validate_coords(np.array([[0, 0, 0]]))

    def test_duplicate_names_rejected(self):
        d = flat_dimension("x", 4)
        with pytest.raises(ValueError):
            Schema([d, d])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_iteration_and_len(self):
        s = small_schema()
        assert len(s) == 2
        assert [d.name for d in s] == ["date", "store"]

    def test_equality(self):
        assert small_schema() == small_schema()


class TestQuery:
    def test_full_query_covers_all(self):
        s = small_schema()
        q = full_query(s)
        assert q.coverage == 1.0
        assert q.box.lo.tolist() == [0, 0]
        assert q.box.hi.tolist() == s.leaf_limits.tolist()

    def test_query_from_levels_single_dim(self):
        s = small_schema()
        q = query_from_levels(s, {"date": (1, (3,))})
        h = s.dimension("date").hierarchy
        lo, hi = h.prefix_range(1, 3)
        assert q.box.lo[0] == lo and q.box.hi[0] == hi
        # unconstrained dimension spans everything
        assert q.box.lo[1] == 0 and q.box.hi[1] == s.leaf_limits[1]

    def test_query_from_levels_deep(self):
        s = small_schema()
        q = query_from_levels(s, {"date": (2, (3, 7)), "store": (2, (1, 5))})
        assert q.box.covers_point(s.encode_point([(3, 7, 15), (1, 5)]))
        assert not q.box.covers_point(s.encode_point([(3, 8, 0), (1, 5)]))

    def test_bad_depth_rejected(self):
        s = small_schema()
        with pytest.raises(ValueError):
            query_from_levels(s, {"date": (4, (0, 0, 0, 0))})
        with pytest.raises(ValueError):
            query_from_levels(s, {"date": (2, (0,))})


class TestRecordBatch:
    def test_empty(self):
        b = RecordBatch.empty(3)
        assert len(b) == 0
        assert b.num_dims == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RecordBatch(np.zeros(3, dtype=np.int64), np.zeros(3))
        with pytest.raises(ValueError):
            RecordBatch(np.zeros((3, 2), dtype=np.int64), np.zeros(2))

    @pytest.mark.parametrize(
        "coords, measures",
        [
            ([[1, 2], [3, 4]], [1.5, 2.5]),
            (np.array([[1, 2], [3, 4]], dtype=np.int32), np.array([1.5, 2.5])),
            (np.array([[1, 2], [3, 4]]), np.array([1.5, 2.5], dtype=np.float32)),
            (np.array([[1, 2], [3, 4]]), np.array([1.5, 2.5])),
        ],
        ids=["lists", "int32", "float32", "int64-float64"],
    )
    def test_inputs_convert_and_matching_arrays_stay_views(self, coords, measures):
        """Any array-like converts to int64/float64 columns; arrays that
        already match are kept as views unless a copy is asked for."""
        b = RecordBatch(coords, measures)
        assert b.coords.dtype == np.int64 and b.measures.dtype == np.float64
        assert b.coords.tolist() == [[1, 2], [3, 4]]
        assert b.measures.tolist() == [1.5, 2.5]
        for col, given in ((b.coords, coords), (b.measures, measures)):
            matching = isinstance(given, np.ndarray) and given.dtype == col.dtype
            assert np.shares_memory(col, given) == matching
        copied = RecordBatch(coords, measures, copy=True)
        assert not np.shares_memory(copied.coords, b.coords)
        assert not np.shares_memory(copied.measures, b.measures)

    def test_row_access(self):
        b = RecordBatch(np.array([[1, 2], [3, 4]]), np.array([1.5, 2.5]))
        coords, m = b.row(1)
        assert coords.tolist() == [3, 4]
        assert m == 2.5

    def test_take_and_slice(self):
        b = RecordBatch(np.arange(10).reshape(5, 2), np.arange(5.0))
        t = b.take(np.array([0, 2]))
        assert t.coords.tolist() == [[0, 1], [4, 5]]
        s = b.slice(1, 3)
        assert len(s) == 2

    def test_serialisation_roundtrip(self):
        b = RecordBatch(np.array([[1, 2], [3, 4]]), np.array([1.5, 2.5]))
        b2 = RecordBatch.from_bytes(b.to_bytes())
        assert np.array_equal(b.coords, b2.coords)
        assert np.array_equal(b.measures, b2.measures)

    def test_serialisation_empty(self):
        b = RecordBatch.empty(4)
        b2 = RecordBatch.from_bytes(b.to_bytes())
        assert len(b2) == 0 and b2.num_dims == 4

    def test_validate_against_schema(self):
        s = small_schema()
        good = RecordBatch(np.array([[5, 5]]), np.array([1.0]))
        good.validate(s)
        bad = RecordBatch(np.array([[1 << 12, 0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            bad.validate(s)

    def test_concat(self):
        a = RecordBatch(np.array([[1, 2]]), np.array([1.0]))
        b = RecordBatch(np.array([[3, 4]]), np.array([2.0]))
        c = concat_batches([a, b], 2)
        assert len(c) == 2
        assert concat_batches([], 2).num_dims == 2

    def test_iter_rows(self):
        b = RecordBatch(np.array([[1, 2], [3, 4]]), np.array([1.0, 2.0]))
        rows = list(b.iter_rows())
        assert rows[0][1] == 1.0 and rows[1][0].tolist() == [3, 4]
