"""Tests for repro.index.compare — the batched packed-word comparison kernels.

Run with ``-W error``: the kernel must not warn on zero XOR lanes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidSequenceError
from repro.index.compare import (
    WORD_BASES,
    PackedCodes,
    common_prefix_len,
    common_suffix_len,
    compare_positions,
    pack_codes,
)

from tests.conftest import dna

pytestmark = pytest.mark.filterwarnings("error")


def naive_cpl(a, b, pa, pb, limit=None):
    n = 0
    while pa + n < len(a) and pb + n < len(b) and a[pa + n] == b[pb + n]:
        n += 1
        if limit is not None and n >= limit:
            break
    if pa < 0 or pb < 0 or pa > len(a) or pb > len(b):
        return 0
    return n


def naive_csl(a, b, pa, pb):
    n = 0
    while pa - n > 0 and pb - n > 0 and a[pa - n - 1] == b[pb - n - 1]:
        n += 1
    return n


def both_paths(fn, a, b, pa, pb, **kwargs):
    """Run ``fn`` on code arrays and on packings; they must agree."""
    got = fn(a, b, pa, pb, **kwargs)
    packed = fn(pack_codes(a), pack_codes(b), pa, pb, **kwargs)
    np.testing.assert_array_equal(got, packed)
    mixed = fn(pack_codes(a), b, pa, pb, **kwargs)
    np.testing.assert_array_equal(got, mixed)
    return got


def random_codes(n, seed):
    return np.random.default_rng(seed).integers(0, 4, n).astype(np.uint8)


class TestPackCodes:
    def test_layout(self):
        codes = random_codes(70, 0)
        packed = pack_codes(codes)
        assert isinstance(packed, PackedCodes)
        assert packed.n == len(packed) == 70
        # ceil(70 / 32) data words plus one zero guard word, both directions.
        assert packed.fwd.size == packed.rev.size == 4
        assert packed.fwd[-1] == 0 and packed.rev[-1] == 0
        for i in (0, 31, 32, 69):
            word, shift = divmod(i, WORD_BASES)
            assert (int(packed.fwd[word]) >> (2 * shift)) & 3 == codes[i]
            assert (int(packed.rev[word]) >> (2 * shift)) & 3 == codes[69 - i]

    def test_empty(self):
        packed = pack_codes(np.empty(0, dtype=np.uint8))
        assert packed.n == 0 and packed.fwd.tolist() == [0]
        assert common_prefix_len(packed, packed, [0], [0]).tolist() == [0]
        assert common_suffix_len(packed, packed, [0], [0]).tolist() == [0]

    def test_immutable(self):
        packed = pack_codes(random_codes(5, 1))
        with pytest.raises(AttributeError):
            packed.n = 6
        with pytest.raises(ValueError):
            packed.fwd[0] = 1

    @pytest.mark.parametrize("fn", [common_prefix_len, common_suffix_len, compare_positions])
    def test_codes_above_3_are_rejected(self, fn):
        # A 2-bit slot cannot hold them: 4 would pack as 0 and spill into
        # the neighbouring base, so "TT" (4, 4) would agree with "TA" (4, 1).
        a = np.array([4, 4], dtype=np.uint8)
        b = np.array([4, 1], dtype=np.uint8)
        with pytest.raises(InvalidSequenceError):
            fn(a, b, [0], [0])
        with pytest.raises(InvalidSequenceError):
            fn(random_codes(8, 2), a, [0], [0])
        with pytest.raises(InvalidSequenceError):
            pack_codes(a)

    def test_self_comparison_packs_once(self, monkeypatch):
        import repro.index.compare as compare

        calls = []
        real = compare._words
        monkeypatch.setattr(compare, "_words", lambda c: calls.append(1) or real(c))
        codes = random_codes(100, 3)
        got = common_prefix_len(codes, codes, [0, 5], [0, 7])
        assert len(calls) == 1
        assert got.tolist() == [100, naive_cpl(codes, codes, 5, 7)]


class TestCommonPrefixLen:
    def test_simple(self):
        a = np.array([0, 1, 2, 3], dtype=np.uint8)
        b = np.array([0, 1, 3], dtype=np.uint8)
        assert both_paths(common_prefix_len, a, b, [0], [0])[0] == 2

    def test_full_match_ends_at_shorter(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        b = np.array([1, 2, 3, 0], dtype=np.uint8)
        assert both_paths(common_prefix_len, a, b, [0], [0])[0] == 3

    def test_run_longer_than_chunk(self):
        a = np.zeros(3 * WORD_BASES + 5, dtype=np.uint8)
        b = np.zeros(3 * WORD_BASES + 9, dtype=np.uint8)
        assert both_paths(common_prefix_len, a, b, [0], [0])[0] == 3 * WORD_BASES + 5

    def test_mismatch_on_chunk_boundary(self):
        a = np.zeros(WORD_BASES + 1, dtype=np.uint8)
        b = np.zeros(WORD_BASES + 1, dtype=np.uint8)
        b[WORD_BASES] = 1
        assert both_paths(common_prefix_len, a, b, [0], [0])[0] == WORD_BASES

    def test_out_of_range_positions(self):
        a = np.zeros(5, dtype=np.uint8)
        out = both_paths(common_prefix_len, a, a, [-1, 6, 5, 0, 0], [0, 0, 5, -3, 9])
        assert out.tolist() == [0, 0, 0, 0, 0]

    def test_position_at_end(self):
        a = np.zeros(5, dtype=np.uint8)
        assert both_paths(common_prefix_len, a, a, [5], [0])[0] == 0
        assert both_paths(common_prefix_len, a, a, [0], [5])[0] == 0

    def test_position_at_end_of_word_aligned_sequence(self):
        # n % 32 == 0: the position n is the first base of the guard word.
        a = np.zeros(2 * WORD_BASES, dtype=np.uint8)
        out = both_paths(common_prefix_len, a, a, [64, 63, 0], [0, 0, 63])
        assert out.tolist() == [0, 1, 1]

    def test_limit_caps(self):
        a = np.zeros(100, dtype=np.uint8)
        assert both_paths(common_prefix_len, a, a, [0], [1], limit=7)[0] == 7

    def test_empty_batch(self):
        a = np.zeros(3, dtype=np.uint8)
        assert both_paths(common_prefix_len, a, a, [], []).size == 0

    def test_shape_mismatch_rejected(self):
        a = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ValueError):
            common_prefix_len(a, a, [0, 1], [0])

    def test_self_comparison_same_position(self):
        a = np.arange(10, dtype=np.uint8) % 4
        assert both_paths(common_prefix_len, a, a, [3], [3])[0] == 7

    @pytest.mark.parametrize("run", [31, 32, 33, 63, 64, 65])
    def test_every_start_phase_on_each_side(self, run):
        # A run of exactly ``run`` bases starting at every word phase of
        # ``a`` against every word phase of ``b``.
        body = random_codes(run, run)
        stride = 4 * WORD_BASES
        b = np.ones(stride * WORD_BASES, dtype=np.uint8)
        pb = np.arange(WORD_BASES) * (stride + 1)  # phase k at block k
        for start in pb:
            b[start : start + run] = body
            b[start + run] = 3
        for phase_a in range(WORD_BASES):
            a = np.concatenate([np.zeros(phase_a, np.uint8), body, [2]])
            pa = np.full(WORD_BASES, phase_a)
            assert (both_paths(common_prefix_len, a, b, pa, pb) == run).all()
            assert (both_paths(common_prefix_len, b, a, pb, pa) == run).all()

    @pytest.mark.parametrize("run", [31, 32, 33, 63, 64, 65])
    def test_run_ending_at_sequence_end(self, run):
        # The run stops only because one sequence ends, at every position
        # of its last word.
        body = random_codes(run, run)
        for pad in range(WORD_BASES):
            a = np.concatenate([np.zeros(pad, np.uint8), body])
            b = np.concatenate([body, body])
            out = both_paths(common_prefix_len, a, b, [pad, pad + 1], [0, 1])
            assert out.tolist() == [run, run - 1], pad

    @pytest.mark.parametrize("n", range(1, 2 * WORD_BASES + 2))
    def test_sequence_length_ends_inside_last_word(self, n):
        a = random_codes(n, n)
        b = np.concatenate([a, random_codes(40, n + 1)])
        starts = np.arange(n + 1)
        out = both_paths(common_prefix_len, a, b, starts, starts)
        assert out.tolist() == (n - starts).tolist()
        out = both_paths(common_prefix_len, b, a, starts, starts)
        assert out.tolist() == (n - starts).tolist()

    @pytest.mark.parametrize("limit", [31, 32, 33])
    def test_limit_at_word_boundary(self, limit):
        a = np.zeros(200, dtype=np.uint8)
        pa = np.arange(0, 40)
        out = both_paths(common_prefix_len, a, a, pa, pa + 1, limit=limit)
        assert (out == limit).all()
        b = a.copy()
        b[limit - 1] = 3
        out = both_paths(common_prefix_len, a, b, [0], [0], limit=limit)
        assert out[0] == limit - 1

    @settings(max_examples=60)
    @given(dna(max_size=150, alphabet=2), dna(max_size=150, alphabet=2),
           st.integers(0, 160), st.integers(0, 160))
    def test_matches_naive(self, a, b, pa, pb):
        got = both_paths(common_prefix_len, a, b, [pa], [pb])[0]
        assert got == naive_cpl(a, b, pa, pb)

    @settings(max_examples=60)
    @given(dna(min_size=1, max_size=300, alphabet=4), st.data())
    def test_one_substitution_long_runs(self, a, data):
        # Query = reference with one substitution: runs up to |a| occur.
        b = a.copy()
        at = data.draw(st.integers(0, a.size - 1))
        b[at] = (b[at] + data.draw(st.integers(1, 3))) % 4
        positions = st.lists(st.integers(0, a.size), min_size=1, max_size=8)
        pa = np.array(data.draw(positions))
        pb = np.array(data.draw(st.lists(st.integers(0, a.size),
                                         min_size=pa.size, max_size=pa.size)))
        pb[: pa.size // 2] = pa[: pa.size // 2]  # same diagonal: the long runs
        limit = data.draw(st.one_of(st.none(), st.integers(1, 320)))
        got = both_paths(common_prefix_len, a, b, pa, pb, limit=limit)
        assert got.tolist() == [naive_cpl(a, b, x, y, limit) for x, y in zip(pa, pb)]
        got = both_paths(common_suffix_len, a, b, pa, pb)
        assert got.tolist() == [naive_csl(a, b, x, y) for x, y in zip(pa, pb)]

    @settings(max_examples=30)
    @given(dna(min_size=5, max_size=80, alphabet=2), st.integers(1, 20))
    def test_limit_property(self, a, limit):
        full = common_prefix_len(a, a, [0], [1])[0]
        capped = both_paths(common_prefix_len, a, a, [0], [1], limit=limit)[0]
        assert capped == min(full, limit)


class TestCommonSuffixLen:
    def test_simple(self):
        a = np.array([0, 1, 2], dtype=np.uint8)
        b = np.array([3, 1, 2], dtype=np.uint8)
        assert both_paths(common_suffix_len, a, b, [3], [3])[0] == 2

    def test_at_start(self):
        a = np.array([1, 2], dtype=np.uint8)
        assert both_paths(common_suffix_len, a, a, [0], [2])[0] == 0

    def test_out_of_range_positions(self):
        a = np.zeros(5, dtype=np.uint8)
        out = both_paths(common_suffix_len, a, a, [-1, 6, 5], [3, 3, 9])
        assert out.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("run", [31, 32, 33, 63, 64, 65])
    def test_every_end_phase(self, run):
        body = random_codes(run, run)
        for phase_a in range(WORD_BASES):
            for phase_b in (0, 5, 31):
                aa = np.concatenate([[2], body, np.zeros(phase_a, np.uint8)])
                bb = np.concatenate([np.ones(phase_b, np.uint8), [3], body])
                ea, eb = 1 + run, phase_b + 1 + run
                out = both_paths(common_suffix_len, aa, bb, [ea], [eb])
                assert out[0] == run, (phase_a, phase_b)

    @settings(max_examples=60)
    @given(dna(min_size=1, max_size=100, alphabet=2),
           dna(min_size=1, max_size=100, alphabet=2),
           st.integers(0, 100), st.integers(0, 100))
    def test_matches_naive(self, a, b, pa, pb):
        pa = min(pa, a.size)
        pb = min(pb, b.size)
        got = both_paths(common_suffix_len, a, b, [pa], [pb])[0]
        assert got == naive_csl(a, b, pa, pb)

    def test_left_extension_semantics(self):
        # match at (r, q): how far can it grow left?
        R = np.array([0, 1, 2, 3], dtype=np.uint8)
        Q = np.array([9 % 4, 1, 2, 3], dtype=np.uint8)
        # match starting at r=2,q=2; left chars R[1]==Q[1]==1, R[0]!=Q[0]
        assert both_paths(common_suffix_len, R, Q, [2], [2])[0] == 1


class TestComparePositions:
    def test_basic_order(self):
        a = np.array([0, 1], dtype=np.uint8)
        b = np.array([0, 2], dtype=np.uint8)
        assert both_paths(compare_positions, a, b, [0], [0])[0] == -1
        assert both_paths(compare_positions, b, a, [0], [0])[0] == 1

    def test_equal_suffixes(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        assert both_paths(compare_positions, a, a, [1], [1])[0] == 0

    def test_prefix_is_smaller(self):
        # "AB" < "ABC": shorter suffix wins (sentinel convention)
        a = np.array([0, 1], dtype=np.uint8)
        b = np.array([0, 1, 2], dtype=np.uint8)
        assert both_paths(compare_positions, a, b, [0], [0])[0] == -1

    def test_empty_suffix_smallest(self):
        a = np.array([0], dtype=np.uint8)
        assert both_paths(compare_positions, a, a, [1], [0])[0] == -1

    def test_decided_past_a_word(self):
        a = np.zeros(80, dtype=np.uint8)
        b = a.copy()
        b[70] = 2
        assert both_paths(compare_positions, a, b, [0], [0])[0] == -1
        assert both_paths(compare_positions, b, a, [3], [3])[0] == 1

    @settings(max_examples=60)
    @given(dna(min_size=1, max_size=60, alphabet=2),
           st.integers(0, 59), st.integers(0, 59))
    def test_matches_python_bytes_order(self, a, i, j):
        i, j = min(i, a.size - 1), min(j, a.size - 1)
        raw = a.tobytes()
        expect = (raw[i:] > raw[j:]) - (raw[i:] < raw[j:])
        assert both_paths(compare_positions, a, a, [i], [j])[0] == expect
