"""Tests for repro.types."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.types import (
    TRIPLET_DTYPE,
    MatchSet,
    concat_triplets,
    diagonal_key,
    empty_triplets,
    make_triplets,
    mems_equal,
    sort_mems,
    triplets_from_tuples,
    unique_mems,
)


def sort_mems_old(mems):
    """The structured-array definition the int64 key replaced (oracle)."""
    if mems.size == 0:
        return mems.copy()
    diag = mems["r"] - mems["q"]
    return mems[np.lexsort((mems["q"], diag))]


@st.composite
def triplet_arrays(draw, coord=st.integers(0, 60), max_rows=30):
    """Shuffled triplets with exact duplicates and same-``(r, q)`` rows.

    ``q`` may exceed ``r``, so diagonals go negative; empty and one-row
    arrays are in range.
    """
    rows = draw(st.lists(
        st.tuples(coord, coord, st.integers(1, 8)), max_size=max_rows
    ))
    if rows:
        # (source row, length change): 0 copies it exactly, anything else
        # keeps its diagonal and q but changes the length.
        extra = draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1), st.integers(-3, 3)),
            max_size=max_rows,
        ))
        for i, dl in extra:
            r, q, length = rows[i]
            rows.append((r, q, max(1, length + dl)))
    rows = draw(st.permutations(rows))
    return triplets_from_tuples(rows)


class TestTriplets:
    def test_make(self):
        t = make_triplets([1, 2], [3, 4], [5, 6])
        assert t.dtype == TRIPLET_DTYPE
        assert t["r"].tolist() == [1, 2]

    def test_make_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_triplets([1], [2, 3], [4])

    def test_empty(self):
        assert empty_triplets().size == 0

    def test_concat(self):
        a = make_triplets([1], [2], [3])
        b = make_triplets([4], [5], [6])
        assert concat_triplets([a, b]).size == 2
        assert concat_triplets([]).size == 0
        assert concat_triplets([empty_triplets(), a]).size == 1

    def test_from_tuples_round_trip(self):
        tuples = [(1, 2, 3), (4, 5, 6)]
        arr = triplets_from_tuples(tuples)
        assert [tuple(int(v) for v in row) for row in arr] == tuples
        assert triplets_from_tuples([]).size == 0


class TestSorting:
    def test_diagonal_sort(self):
        # §III-C1 order: (r - q, then q)
        t = make_triplets([5, 1, 3], [1, 1, 2], [2, 2, 2])  # diags 4, 0, 1
        s = sort_mems(t)
        assert (s["r"] - s["q"]).tolist() == [0, 1, 4]

    def test_tie_on_q(self):
        t = make_triplets([4, 2], [3, 1], [2, 2])  # both diag 1
        s = sort_mems(t)
        assert s["q"].tolist() == [1, 3]

    def test_unique_drops_duplicates(self):
        t = make_triplets([1, 1, 2], [1, 1, 2], [3, 3, 3])
        assert unique_mems(t).size == 2

    @settings(max_examples=200)
    @given(triplet_arrays())
    def test_unique_matches_structured_oracle(self, x):
        got = unique_mems(x)
        assert got.tobytes() == sort_mems_old(np.unique(x)).tobytes()
        assert unique_mems(got).tobytes() == got.tobytes()

    @settings(max_examples=100)
    @given(triplet_arrays())
    def test_sort_is_lexsort_on_diagonal_q_length(self, x):
        expect = x[np.lexsort((x["length"], x["q"], x["r"] - x["q"]))]
        assert sort_mems(x).tobytes() == expect.tobytes()

    @settings(max_examples=100)
    @given(triplet_arrays(coord=st.integers(2**40, 2**62), max_rows=10))
    def test_huge_coordinates_take_the_lexsort_fallback(self, x):
        # Two far-apart anchors force a key range past 2**63.
        x = concat_triplets(
            [x, make_triplets([2**62, 2**40], [2**40, 2**62], [1, 1])]
        )
        assert diagonal_key(x) is None
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as fallback:
            got = unique_mems(x)
        assert fallback.call_count == 1
        assert got.tobytes() == sort_mems_old(np.unique(x)).tobytes()
        assert unique_mems(got).tobytes() == got.tobytes()

    def test_mems_equal_order_insensitive(self):
        a = make_triplets([1, 2], [1, 2], [3, 3])
        b = make_triplets([2, 1], [2, 1], [3, 3])
        assert mems_equal(a, b)
        assert not mems_equal(a, a[:1])


class TestMatchSet:
    def make(self):
        return MatchSet(make_triplets([1, 5, 1], [0, 2, 0], [4, 3, 4]))

    def test_dedup_on_construction(self):
        assert len(self.make()) == 2

    def test_iteration_yields_tuples(self):
        items = list(self.make())
        assert all(isinstance(x, tuple) and len(x) == 3 for x in items)

    def test_indexing(self):
        ms = self.make()
        assert isinstance(ms[0], tuple)

    def test_equality(self):
        assert self.make() == self.make()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.make())

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            MatchSet(np.zeros(3, dtype=np.int64))

    def test_lengths_and_total(self):
        ms = self.make()
        assert sorted(ms.lengths().tolist()) == [3, 4]
        assert ms.total_matched_bases() == 7

    def test_filter_min_length(self):
        assert len(self.make().filter_min_length(4)) == 1

    def test_stats_dict(self):
        ms = MatchSet(empty_triplets(), stats={"a": 1})
        assert ms.stats["a"] == 1

    def test_repr(self):
        assert "n=2" in repr(self.make())

    def test_as_tuples(self):
        assert set(self.make().as_tuples()) == {(1, 0, 4), (5, 2, 3)}
