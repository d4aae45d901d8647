"""Tests for repro.index.kmer_index (the sorted keys/locs seed index)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexIntegrityError, InvalidParameterError
from repro.index.kmer_index import (
    build_kmer_index,
    max_step,
    validate_sparsity,
)
from repro.sequence.packed import kmer_codes

from tests.conftest import dna


class TestEq1Validation:
    def test_max_step_formula(self):
        # Eq. (1): Δs <= L - ℓs + 1
        assert max_step(13, 50) == 38
        assert max_step(10, 10) == 1

    def test_validate_accepts_max(self):
        validate_sparsity(10, 41, 50)

    def test_validate_rejects_over_max(self):
        with pytest.raises(InvalidParameterError, match="Eq."):
            validate_sparsity(10, 42, 50)

    def test_validate_rejects_bad_lengths(self):
        with pytest.raises(InvalidParameterError):
            validate_sparsity(0, 1, 5)
        with pytest.raises(InvalidParameterError):
            validate_sparsity(5, 0, 5)
        with pytest.raises(InvalidParameterError):
            validate_sparsity(6, 1, 5)  # L < ℓs

    def test_max_step_requires_L_ge_seed(self):
        with pytest.raises(InvalidParameterError):
            max_step(10, 5)


class TestBuildIndex:
    def test_structure_small(self):
        codes = np.array([0, 1, 0, 1, 0], dtype=np.uint8)  # ACACA
        idx = build_kmer_index(codes, seed_length=2, step=1)
        idx.check()
        # AC at 0,2; CA at 1,3
        assert idx.locations_of(1).tolist() == [0, 2]  # AC = 0*4+1
        assert idx.locations_of(4).tolist() == [1, 3]  # CA = 1*4+0
        assert idx.n_locs == 4

    def test_step_grid_is_global(self):
        codes = np.zeros(20, dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=2, step=3, region_start=4, region_end=16)
        # grid positions ≡ 0 (mod 3) within [4,16): 6, 9, 12, 15
        assert sorted(idx.locs.tolist()) == [6, 9, 12, 15]

    def test_window_may_cross_region_end(self):
        codes = np.zeros(10, dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=4, step=1, region_start=0, region_end=5)
        # starts 0..4 allowed; windows read past region_end but not past n
        assert sorted(idx.locs.tolist()) == [0, 1, 2, 3, 4]

    def test_window_never_crosses_sequence_end(self):
        codes = np.zeros(6, dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=4, step=1)
        assert idx.locs.max() == 2

    def test_empty_region(self):
        codes = np.zeros(10, dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=3, step=1, region_start=9, region_end=9)
        assert idx.n_locs == 0
        idx.check()

    def test_sequence_shorter_than_seed(self):
        idx = build_kmer_index(np.zeros(2, np.uint8), seed_length=5, step=1)
        assert idx.n_locs == 0

    def test_bad_params(self):
        with pytest.raises(InvalidParameterError):
            build_kmer_index(np.zeros(5, np.uint8), seed_length=0, step=1)
        with pytest.raises(InvalidParameterError):
            build_kmer_index(np.zeros(5, np.uint8), seed_length=2, step=0)
        with pytest.raises(InvalidParameterError):
            build_kmer_index(np.zeros(5, np.uint8), seed_length=32, step=1)

    def test_long_seeds(self):
        # up to 31 bases, one int64 code per seed; memory is O(n_locs)
        codes = np.random.default_rng(4).integers(0, 4, 300).astype(np.uint8)
        idx = build_kmer_index(codes, seed_length=31, step=5)
        idx.check()
        km = kmer_codes(codes, 31)
        assert idx.n_locs == 54
        assert sorted(idx.keys.tolist()) == idx.keys.tolist()
        assert np.array_equal(km[idx.locs], idx.keys)
        for p in (0, 135, 265):
            assert idx.locations_of(int(km[p])).tolist() == [p]

    @settings(max_examples=50, deadline=None)
    @given(dna(min_size=1, max_size=120), st.integers(1, 4), st.integers(1, 5))
    def test_matches_naive_everywhere(self, codes, ls, step):
        idx = build_kmer_index(codes, seed_length=ls, step=step)
        idx.check()
        km = kmer_codes(codes, ls)
        for s in range(4**ls):
            expect = [p for p in range(0, max(0, codes.size - ls + 1), step)
                      if km[p] == s]
            assert idx.locations_of(s).tolist() == expect

    @pytest.mark.parametrize(
        "n, tile, ls, step",
        [
            (1000, 128, 6, 11),  # Δs does not divide ℓtile
            (1000, 100, 6, 7),  # last row is partial
            (999, 111, 8, 40),  # ragged last row
            (64, 32, 8, 5),  # windows of the last grid points cross row ends
        ],
    )
    def test_row_window_encoding_equals_whole_reference(self, n, tile, ls, step):
        # Each row encodes only its own window; the index must be the one a
        # whole-reference encoding gives, for every row including the last.
        codes = np.random.default_rng(n + step).integers(0, 4, n).astype(np.uint8)
        whole = kmer_codes(codes, ls)
        crossing = 0
        for r0 in range(0, n, tile):
            r1 = min(r0 + tile, n)
            idx = build_kmer_index(
                codes, seed_length=ls, step=step, region_start=r0, region_end=r1
            )
            positions = [p for p in range(r0, min(r1, n - ls + 1)) if p % step == 0]
            assert sorted(idx.locs.tolist()) == positions
            for s in np.unique(whole[positions]) if positions else []:
                expect = [p for p in positions if whole[p] == s]
                assert idx.locations_of(int(s)).tolist() == expect
            crossing += bool(positions) and positions[-1] + ls > r1
        assert crossing  # some seed window reads past its row's end

    def test_full_index_when_step_one(self):
        codes = np.arange(12, dtype=np.uint8) % 4
        idx = build_kmer_index(codes, seed_length=3, step=1)
        assert idx.n_locs == 10  # every window


class TestLookup:
    def test_vectorized_lookup(self):
        codes = np.array([0, 1, 0, 1], dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=2, step=1)
        starts, counts = idx.lookup(np.array([1, 4, 15]))  # AC, CA, TT
        assert counts.tolist() == [2, 1, 0]
        assert idx.locs[starts[0] : starts[0] + counts[0]].tolist() == [0, 2]

    def test_negative_seed_is_empty(self):
        codes = np.array([0, 1], dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=1, step=1)
        _, counts = idx.lookup(np.array([-1]))
        assert counts.tolist() == [0]

    def test_out_of_range_seed_is_empty(self):
        codes = np.array([0, 1], dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=1, step=1)
        _, counts = idx.lookup(np.array([4]))
        assert counts.tolist() == [0]

    def test_locations_of_out_of_range(self):
        idx = build_kmer_index(np.array([0], dtype=np.uint8), seed_length=1, step=1)
        assert idx.locations_of(99).size == 0


    @settings(max_examples=50, deadline=None)
    @given(dna(min_size=1, max_size=150), st.integers(1, 4), st.integers(1, 5),
           st.lists(st.integers(-(2**40), 2**40), max_size=30))
    def test_lookup_never_drops_a_hit(self, codes, ls, step, extra):
        """Every seed value gets exactly its grid occurrences; values that
        do not occur (out of range included) get count 0."""
        idx = build_kmer_index(codes, seed_length=ls, step=step)
        seeds = np.concatenate([np.arange(-9, 4**ls + 9), extra]).astype(np.int64)
        km = kmer_codes(codes, ls)
        grid = km[np.arange(0, km.size, step)] if km.size else km
        starts, counts = idx.lookup(seeds)
        expect = np.array([np.count_nonzero(grid == v) for v in seeds])
        assert np.array_equal(counts, expect)
        for v, lo, c in zip(seeds, starts, counts, strict=True):
            assert np.all(idx.keys[lo : lo + c] == v)


def largest_group(idx):
    """``(key, first slot)`` of the most frequent key of ``idx``."""
    values, first, counts = np.unique(idx.keys, return_index=True, return_counts=True)
    i = int(np.argmax(counts))
    assert counts[i] >= 2
    return int(values[i]), int(first[i])


class TestCheck:
    def _index(self):
        codes = np.random.default_rng(3).integers(0, 4, 400).astype(np.uint8)
        idx = build_kmer_index(codes, seed_length=3, step=1)
        idx.check()
        return idx

    def test_rejects_unsorted_group(self):
        idx = self._index()
        seed, lo = largest_group(idx)
        idx.locs[[lo, lo + 1]] = idx.locs[[lo + 1, lo]]
        with pytest.raises(IndexIntegrityError, match=f"seed {seed} ") as exc:
            idx.check()
        assert exc.value.field == "locs"

    def test_rejects_repeated_location_in_group(self):
        idx = self._index()
        _, lo = largest_group(idx)
        idx.locs[lo + 1] = idx.locs[lo]
        with pytest.raises(IndexIntegrityError) as exc:
            idx.check()
        assert exc.value.field == "locs"

    @settings(max_examples=60, deadline=None)
    @given(dna(min_size=2, max_size=120), st.integers(1, 3), st.integers(1, 3),
           st.data())
    def test_order_check_equals_per_seed_loop(self, codes, ls, step, data):
        idx = build_kmer_index(codes, seed_length=ls, step=step)
        if idx.n_locs:
            i = data.draw(st.integers(0, idx.n_locs - 1))
            j = data.draw(st.integers(0, idx.n_locs - 1))
            if data.draw(st.booleans()):
                idx.locs[[i, j]] = idx.locs[[j, i]]
            else:
                idx.locs[i] = idx.locs[j]
        loop_sorted = all(
            np.all(np.diff(idx.locs[idx.keys == s]) > 0)
            for s in np.unique(idx.keys)
        )
        try:
            idx.check()
        except IndexIntegrityError as exc:
            assert exc.field == "locs" and not loop_sorted
        else:
            assert loop_sorted

    def test_descent_across_groups_is_legal(self):
        # groups are ordered by seed value, not by location
        idx = self._index()
        assert np.any(np.diff(idx.locs) < 0)
        idx.check()

    def test_rejects_unsorted_keys(self):
        idx = self._index()
        idx.keys[[0, -1]] = idx.keys[[-1, 0]]
        with pytest.raises(IndexIntegrityError, match="non-decreasing") as exc:
            idx.check()
        assert exc.value.field == "keys"

    def test_rejects_location_outside_region(self):
        codes = np.zeros(50, np.uint8)
        idx = build_kmer_index(codes, seed_length=2, step=5,
                               region_start=10, region_end=30)
        idx.locs[-1] = 30
        with pytest.raises(IndexIntegrityError, match="outside") as exc:
            idx.check()
        assert exc.value.field == "locs"

    def test_rejects_location_off_the_grid(self):
        idx = build_kmer_index(np.zeros(50, np.uint8), seed_length=2, step=5)
        idx.locs[-1] += 1
        with pytest.raises(IndexIntegrityError, match="grid") as exc:
            idx.check()
        assert exc.value.field == "locs"


class TestSizing:
    def test_nbytes_packed_positive(self):
        idx = build_kmer_index(np.zeros(100, np.uint8), seed_length=3, step=2)
        assert idx.nbytes_packed > 0

    def test_sparser_is_smaller(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 10_000).astype(np.uint8)
        dense = build_kmer_index(codes, seed_length=5, step=1)
        sparse = build_kmer_index(codes, seed_length=5, step=10)
        assert sparse.n_locs * 10 <= dense.n_locs + 10
        assert sparse.nbytes_packed < dense.nbytes_packed

    def test_paper_size_formula(self):
        # n_locs = ceil(region / Δs) when the region is interior
        codes = np.zeros(1000, dtype=np.uint8)
        idx = build_kmer_index(codes, seed_length=4, step=7,
                               region_start=0, region_end=700)
        assert idx.n_locs == 100
