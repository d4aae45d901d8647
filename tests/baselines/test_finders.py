"""Correctness tests for all four baseline MEM finders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    ALL_FINDERS,
    EssaMemFinder,
    MummerFinder,
    SlaMemFinder,
    SparseMemFinder,
)
from repro.core.reference import brute_force_mems
from repro.errors import GpuMemError, InvalidParameterError
from repro.index.lcp import naive_lcp_array
from repro.types import mems_equal

from tests.conftest import dna_pair


def make_finders(L):
    finders = [MummerFinder(), SlaMemFinder(occ_rate=16, sa_rate=8)]
    for K in (2, 4):
        if K <= L:
            finders.append(SparseMemFinder(sparseness=K))
            finders.append(EssaMemFinder(sparseness=K, prefix_table_k=3))
    return finders


class TestAllFindersAgree:
    @settings(max_examples=25, deadline=None)
    @given(dna_pair(max_size=120), st.integers(4, 8))
    def test_equal_to_brute_force(self, pair, L):
        R, Q = pair
        expect = brute_force_mems(R, Q, L)
        for finder in make_finders(L):
            finder.build_index(R)
            got = finder.find_mems(Q, L)
            assert mems_equal(got.mems.array, expect), finder.name

    def test_repeat_heavy_input(self):
        R = np.tile(np.array([0, 1, 2, 1], dtype=np.uint8), 40)
        Q = np.tile(np.array([0, 1, 2, 1], dtype=np.uint8), 30)
        expect = brute_force_mems(R, Q, 6)
        for finder in make_finders(6):
            finder.build_index(R)
            assert mems_equal(finder.find_mems(Q, 6).mems.array, expect), finder.name

    def test_on_realistic_pair(self, homologous_pair):
        R, Q = homologous_pair
        import repro

        expect = repro.find_mems(R, Q, min_length=25, seed_length=8).array
        for finder in (MummerFinder(), EssaMemFinder(sparseness=4)):
            finder.build_index(R)
            got = finder.find_mems(Q, 25)
            assert mems_equal(got.mems.array, expect), finder.name


class TestProtocol:
    def test_find_before_build_raises(self):
        with pytest.raises(GpuMemError, match="build_index"):
            MummerFinder().find_mems(np.zeros(5, np.uint8), 3)

    def test_build_result_fields(self):
        rng = np.random.default_rng(0)
        R = rng.integers(0, 4, 300).astype(np.uint8)
        res = MummerFinder().build_index(R)
        assert res.seconds >= 0 and res.index_bytes > 0

    def test_match_result_fields(self):
        rng = np.random.default_rng(1)
        R = rng.integers(0, 4, 300).astype(np.uint8)
        f = MummerFinder()
        f.build_index(R)
        res = f.find_mems(R, 10)
        assert res.seconds >= 0
        assert len(res.mems) >= 1

    def test_string_inputs(self):
        f = MummerFinder()
        f.build_index("ACGTACGTACGT")
        res = f.find_mems("ACGTACGTACGT", 4)
        assert (0, 0, 12) in set(res.mems.as_tuples())

    def test_registry_names(self):
        assert set(ALL_FINDERS) == {"MUMmer", "sparseMEM", "essaMEM", "slaMEM"}
        for name, cls in ALL_FINDERS.items():
            assert cls.name == name


class TestSparseSpecifics:
    def test_min_length_below_sparseness_rejected(self):
        rng = np.random.default_rng(2)
        R = rng.integers(0, 4, 100).astype(np.uint8)
        f = SparseMemFinder(sparseness=8)
        f.build_index(R)
        with pytest.raises(InvalidParameterError):
            f.find_mems(R, 4)

    def test_bad_sparseness(self):
        with pytest.raises(InvalidParameterError):
            SparseMemFinder(sparseness=0)

    def test_index_smaller_with_sparseness(self):
        rng = np.random.default_rng(3)
        R = rng.integers(0, 4, 2000).astype(np.uint8)
        f1, f8 = SparseMemFinder(sparseness=1), SparseMemFinder(sparseness=8)
        b1, b8 = f1.build_index(R), f8.build_index(R)
        assert b8.index_bytes < b1.index_bytes / 4

    def test_essamem_prefix_table_shrinks_for_tiny_refs(self):
        f = EssaMemFinder(sparseness=1, prefix_table_k=8)
        f.build_index(np.zeros(64, dtype=np.uint8))
        assert f._searcher.prefix_table_k < 8


class TestSlaMemSpecifics:
    def test_index_bytes_counts_fm_parts(self):
        rng = np.random.default_rng(4)
        R = rng.integers(0, 4, 500).astype(np.uint8)
        f = SlaMemFinder()
        f.build_index(R)
        assert f.index_bytes() > 0

    @settings(max_examples=25, deadline=None)
    @given(dna_pair(max_size=120, alphabet=4), st.integers(3, 8))
    def test_equal_to_brute_force_on_four_letters(self, pair, L):
        # Every base, T (code 3) included, must reach the LCP intervals
        # intact; the shared property test above draws from 3 letters.
        R, Q = pair
        f = SlaMemFinder(occ_rate=16, sa_rate=8)
        f.build_index(R)
        assert mems_equal(f.find_mems(Q, L).mems.array, brute_force_mems(R, Q, L))

    def test_lcp_intervals_see_t(self):
        # "TT" vs "TA" share one base, not two; the LCP over the FM suffix
        # array must match the character-by-character one.
        R = np.array([3, 3, 0, 3, 0, 3, 3, 1], dtype=np.uint8)
        f = SlaMemFinder()
        f.build_index(R)
        sa = f._sa_cache
        text = np.append(R + 1, 0).astype(np.uint8)
        assert f._intervals.lcp.tolist() == naive_lcp_array(text, sa).tolist()

    def test_query_with_absent_symbols(self):
        # reference lacks T entirely; matching statistics must shorten safely
        R = np.zeros(60, dtype=np.uint8)
        Q = np.array([3, 3, 0, 0, 0, 0, 3, 3], dtype=np.uint8)
        f = SlaMemFinder()
        f.build_index(R)
        expect = brute_force_mems(R, Q, 3)
        assert mems_equal(f.find_mems(Q, 3).mems.array, expect)
