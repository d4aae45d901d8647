"""Tests for repro.core.host_merge."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.combine import chain_merge_expected
from repro.core.host_merge import combine_diagonal, finalize_mems, host_merge
from repro.core.reference import brute_force_mems
from repro.types import mems_equal, triplets_from_tuples

from tests.conftest import dna


def tile_fragments(mems, size, keep):
    """Each MEM cut at the borders of a ``size``-square tile grid; ``keep``
    picks which of a MEM's pieces survive (at least one)."""
    frags = []
    for r, q, n in (tuple(map(int, m)) for m in mems):
        cuts = [k for k in range(1, n) if (r + k) % size == 0 or (q + k) % size == 0]
        bounds = [0, *cuts, n]
        pieces = [(r + a, q + a, b - a) for a, b in zip(bounds, bounds[1:])]
        frags += [p for i, p in enumerate(pieces) if keep(i, len(pieces))]
    return triplets_from_tuples(frags)


class TestCombineDiagonal:
    def test_empty(self):
        assert combine_diagonal(triplets_from_tuples([])).size == 0

    def test_single(self):
        t = triplets_from_tuples([(3, 1, 5)])
        out = combine_diagonal(t)
        assert [tuple(map(int, m)) for m in out] == [(3, 1, 5)]

    def test_overlap_merges(self):
        t = triplets_from_tuples([(0, 0, 5), (3, 3, 5)])
        out = combine_diagonal(t)
        assert [tuple(map(int, m)) for m in out] == [(0, 0, 8)]

    def test_touching_merges(self):
        t = triplets_from_tuples([(0, 0, 3), (3, 3, 3)])
        out = combine_diagonal(t)
        assert [tuple(map(int, m)) for m in out] == [(0, 0, 6)]

    def test_gap_stays_split(self):
        t = triplets_from_tuples([(0, 0, 2), (4, 4, 2)])
        out = combine_diagonal(t)
        assert out.size == 2

    def test_different_diagonals_never_merge(self):
        t = triplets_from_tuples([(0, 0, 10), (5, 4, 10)])
        assert combine_diagonal(t).size == 2

    def test_contained_interval(self):
        t = triplets_from_tuples([(0, 0, 10), (2, 2, 3)])
        out = combine_diagonal(t)
        assert [tuple(map(int, m)) for m in out] == [(0, 0, 10)]

    def test_chain_through_middle(self):
        t = triplets_from_tuples([(0, 0, 4), (4, 4, 4), (8, 8, 4)])
        out = combine_diagonal(t)
        assert [tuple(map(int, m)) for m in out] == [(0, 0, 12)]

    @settings(max_examples=80)
    @given(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(1, 10)),
        max_size=15,
    ))
    def test_matches_transitive_closure(self, trips):
        arr = triplets_from_tuples([(q + d, q, l) for d, q, l in trips])
        got = {tuple(map(int, m)) for m in combine_diagonal(arr)}
        assert got == chain_merge_expected(
            [(q + d, q, l) for d, q, l in trips]
        )

    def test_group_stride_product_overflow(self):
        """Regression: ``group * stride`` silently wrapped int64.

        With far-apart query offsets the per-group stride is ~2^61; at five
        or more diagonal groups the keyed offsets exceed 2^63 - 1, NumPy
        wraps, and the segmented cummax leaks across diagonals — merging
        triplets that belong to different chains. Constructed so the old
        arithmetic is tripped: a contained interval late in a wrapped group
        would be mis-detected as a new chain (or vice versa).
        """
        far = 2**61
        trips = []
        # Six diagonal groups; each has an overlapping pair that must merge
        # and a separated triplet that must not.
        for g in range(6):
            base_q = 10 + g if g < 3 else far + g  # spread makes stride huge
            diag = g * 7
            trips += [
                (base_q + diag, base_q, 20),
                (base_q + diag + 10, base_q + 10, 20),  # overlaps → merges
                (base_q + diag + 100, base_q + 100, 5),  # gap → separate
            ]
        arr = triplets_from_tuples(trips)
        # Exact Python-int keyed offsets overflow int64 for this input —
        # the guard must route to the per-group fallback.
        stride = int(max(q + l for _, q, l in trips)) - 10 + 1
        assert 5 * stride > np.iinfo(np.int64).max
        got = {tuple(map(int, m)) for m in combine_diagonal(arr)}
        assert got == chain_merge_expected(trips)

    def test_large_but_safe_offsets_use_fast_path(self):
        trips = [(1_000_000 + 5, 1_000_000, 30),
                 (1_000_000 + 25, 1_000_000 + 20, 30),
                 (50, 10, 8)]
        got = {tuple(map(int, m)) for m in combine_diagonal(
            triplets_from_tuples(trips)
        )}
        assert got == chain_merge_expected(trips)


class TestFinalize:
    def test_re_extension_restores_maximality(self):
        # fragment (2,2,2) of the full match (0,0,6) in identical sequences
        R = np.arange(6, dtype=np.uint8) % 4
        Q = R.copy()
        frag = triplets_from_tuples([(2, 2, 2)])
        out = finalize_mems(R, Q, frag, 3)
        assert [tuple(map(int, m)) for m in out] == [(0, 0, 6)]

    def test_length_filter_after_extension(self):
        R = np.array([0, 1, 2, 3], dtype=np.uint8)
        Q = np.array([1, 2, 0, 0], dtype=np.uint8)  # match "12" at (1,0)
        frag = triplets_from_tuples([(1, 0, 1)])
        assert finalize_mems(R, Q, frag, 3).size == 0
        assert finalize_mems(R, Q, frag, 2).size == 1

    def test_duplicates_collapse(self):
        R = np.zeros(5, dtype=np.uint8)
        Q = np.zeros(5, dtype=np.uint8)
        frags = triplets_from_tuples([(1, 1, 2), (2, 2, 2)])
        out = finalize_mems(R, Q, frags, 1)
        assert [tuple(map(int, m)) for m in out] == [(0, 0, 5)]

    def test_empty(self):
        R = np.zeros(3, dtype=np.uint8)
        assert finalize_mems(R, R, triplets_from_tuples([]), 1).size == 0


class TestHostMerge:
    def test_fragments_of_one_mem_reassemble(self):
        """The DESIGN.md §5 note 2 scenario: a missing middle fragment is
        recovered by re-extension."""
        R = np.arange(12, dtype=np.uint8) % 4
        Q = R.copy()
        # fragments from two tiles, middle tile's fragment missing
        frags = triplets_from_tuples([(0, 0, 3), (9, 9, 3)])
        out = host_merge(R, Q, frags, 5)
        assert [tuple(map(int, m)) for m in out] == [(0, 0, 12)]

    def test_distinct_mems_stay_distinct(self):
        R = np.array([0, 1, 2, 3, 3, 2, 1, 0], dtype=np.uint8)
        Q = np.array([0, 1, 2, 0, 0, 2, 1, 0], dtype=np.uint8)
        frags = triplets_from_tuples([(0, 0, 3), (5, 5, 3)])
        out = host_merge(R, Q, frags, 2)
        assert {tuple(map(int, m)) for m in out} == {(0, 0, 3), (5, 5, 3)}

    @settings(max_examples=40, deadline=None)
    @given(dna(min_size=8, max_size=60, alphabet=2),
           dna(min_size=8, max_size=60, alphabet=2), st.data())
    def test_host_merge_ignores_out_tile_order(self, R, Q, data):
        """Tile-border fragments of every MEM, some pieces missing, merge
        back to the MEM set whatever their order."""
        L, size = 3, 12
        mems = brute_force_mems(R, Q, L)
        drop = data.draw(st.sets(st.integers(0, 8)))
        frags = tile_fragments(mems, size, lambda i, n: i == 0 or i not in drop)
        merged = host_merge(R, Q, frags, L)
        perm = np.array(data.draw(st.permutations(range(frags.size))), dtype=np.int64)
        assert host_merge(R, Q, frags[perm], L).tobytes() == merged.tobytes()
        assert mems_equal(merged, mems)
