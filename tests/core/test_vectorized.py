"""Tests for repro.core.vectorized (match stage internals)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GpuMem, mutate, random_dna
from repro.core.params import GpuMemParams
from repro.core.pipeline import TileMatchStage
from repro.core.reference import brute_force_mems
from repro.core.tiling import Tile
from repro.core.vectorized import (
    candidate_chunks,
    expand_ranges,
    extend_and_classify,
    seed_hits,
    stage_tile,
    tile_candidates,
)
from repro.index.kmer_index import build_kmer_index
from repro.obs import Tracer
from repro.sequence.packed import kmer_codes
from repro.types import mems_equal, unique_mems

from tests.conftest import dna


class TestExpandRanges:
    def test_simple(self):
        flat, owner = expand_ranges(np.array([10, 20]), np.array([2, 3]))
        assert flat.tolist() == [10, 11, 20, 21, 22]
        assert owner.tolist() == [0, 0, 1, 1, 1]

    def test_empty_ranges_skipped(self):
        flat, owner = expand_ranges(np.array([5, 9, 7]), np.array([0, 2, 0]))
        assert flat.tolist() == [9, 10]
        assert owner.tolist() == [1, 1]

    def test_all_empty(self):
        flat, owner = expand_ranges(np.array([1, 2]), np.array([0, 0]))
        assert flat.size == 0 and owner.size == 0

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=20))
    def test_matches_naive(self, ranges):
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        counts = np.array([c for _, c in ranges], dtype=np.int64)
        flat, owner = expand_ranges(starts, counts)
        expect_flat, expect_owner = [], []
        for i, (s, c) in enumerate(ranges):
            for j in range(c):
                expect_flat.append(s + j)
                expect_owner.append(i)
        assert flat.tolist() == expect_flat
        assert owner.tolist() == expect_owner


def full_tile(nr, nq):
    return Tile(row=0, col=0, r_start=0, r_end=nr, q_start=0, q_end=nq)


def naive_seed_hits(R, Q, tile, ls, step=1):
    """Every ``(r, q)`` in the tile box whose ``ls``-windows agree, with
    ``r`` on the global ``step`` grid; query-major, ``r`` ascending."""
    pairs = [
        (r, q)
        for q in range(tile.q_start, min(tile.q_end, Q.size - ls + 1))
        for r in range(tile.r_start, min(tile.r_end, R.size - ls + 1))
        if r % step == 0 and np.array_equal(R[r : r + ls], Q[q : q + ls])
    ]
    r, q = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return r.copy(), q.copy()


def band_candidates(qk, q_lo, q_hi, idx):
    """All candidates of query seeds ``[q_lo, q_hi)`` in one chunk."""
    hits = seed_hits(qk[q_lo:q_hi], q_lo, idx)
    return tile_candidates(hits, idx, 0, hits.n_candidates)


class TestTileCandidates:
    def test_finds_all_seed_alignments(self):
        rng = np.random.default_rng(0)
        R = rng.integers(0, 2, 60).astype(np.uint8)
        Q = rng.integers(0, 2, 50).astype(np.uint8)
        ls, step = 3, 2
        idx = build_kmer_index(R, seed_length=ls, step=step)
        qk = kmer_codes(Q, ls)
        r, q = band_candidates(qk, 0, qk.size, idx)
        got = set(zip(r.tolist(), q.tolist(), strict=True))
        rk = kmer_codes(R, ls)
        expect = {
            (rr, qq)
            for qq in range(50 - ls + 1)
            for rr in range(0, 60 - ls + 1, step)
            if rk[rr] == qk[qq]
        }
        assert got == expect
        assert len(got) == r.size

    def test_respects_tile_column(self):
        R = np.zeros(30, dtype=np.uint8)
        Q = np.zeros(30, dtype=np.uint8)
        idx = build_kmer_index(R, seed_length=2, step=1)
        qk = kmer_codes(Q, 2)
        _, q = band_candidates(qk, 10, 20, idx)
        assert q.min() >= 10 and q.max() < 20

    def test_query_window_must_fit_sequence(self):
        R = np.zeros(10, dtype=np.uint8)
        Q = np.zeros(5, dtype=np.uint8)
        idx = build_kmer_index(R, seed_length=3, step=1)
        qk = kmer_codes(Q, 3)
        _, q = band_candidates(qk, 0, qk.size, idx)
        assert q.max() <= 2

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_byte_identical_to_loop_oracle(self, data):
        """The sorted join, cut into chunks of any size, gives exactly the
        oracle's pairs in key order, also when some query seeds are out of
        range (negative or ≥ 4^ℓs values must match nothing)."""
        alphabet = data.draw(st.sampled_from([2, 4]))
        R = data.draw(dna(min_size=4, max_size=70, alphabet=alphabet))
        Q = data.draw(dna(min_size=4, max_size=70, alphabet=alphabet))
        ls = data.draw(st.integers(1, 3))
        step = data.draw(st.integers(1, 4))
        r0 = data.draw(st.integers(0, R.size - 1))
        q0 = data.draw(st.integers(0, Q.size - 1))
        tile = Tile(row=0, col=0,
                    r_start=r0, r_end=data.draw(st.integers(r0, R.size)),
                    q_start=q0, q_end=data.draw(st.integers(q0, Q.size)))
        idx = build_kmer_index(R, seed_length=ls, step=step,
                               region_start=tile.r_start, region_end=tile.r_end)
        qk = kmer_codes(Q, ls).astype(np.int64)
        bad = sorted(data.draw(st.sets(st.integers(0, qk.size - 1), max_size=6)))
        for pos in bad:
            qk[pos] = data.draw(st.sampled_from(
                [-1, -8, -(2**62), 4**ls, 4**ls + 7, 2**40]))
        q_hi = min(tile.q_end, qk.size)
        hits = seed_hits(qk[tile.q_start:q_hi], tile.q_start, idx)
        size = data.draw(st.integers(1, 8))
        chunks = candidate_chunks(hits.n_candidates, size)
        assert all(0 < hi - lo <= size for lo, hi in chunks)
        parts = [tile_candidates(hits, idx, lo, hi) for lo, hi in chunks]
        r = np.concatenate([p[0] for p in parts] + [np.empty(0, np.int64)])
        q = np.concatenate([p[1] for p in parts] + [np.empty(0, np.int64)])
        er, eq = naive_seed_hits(R, Q, tile, ls, step)
        keep = ~np.isin(eq, bad)
        er, eq = er[keep], eq[keep]
        assert r.dtype == q.dtype == np.int64
        assert np.all(np.diff(qk[q]) >= 0)  # key-major
        got, want = np.lexsort((r, q, qk[q])), np.lexsort((er, eq, qk[eq]))
        assert r[got].tobytes() == er[want].tobytes()
        assert q[got].tobytes() == eq[want].tobytes()
        assert hits.n_candidates == r.size

    def test_empty_tile(self):
        R = np.zeros(10, dtype=np.uint8)
        idx = build_kmer_index(R, seed_length=3, step=1)
        r, q = band_candidates(np.empty(0, np.int64), 4, 4, idx)
        assert r.size == 0


class TestCandidateChunks:
    def test_cuts_cover_the_candidates(self):
        assert candidate_chunks(0, 4) == []
        assert candidate_chunks(9, 4) == [(0, 4), (4, 8), (8, 9)]
        assert candidate_chunks(8, 4) == [(0, 4), (4, 8)]

    def test_cut_inside_one_seed(self):
        # one hot seed owns every candidate: each cut takes a slice of it
        R = np.zeros(40, dtype=np.uint8)
        idx = build_kmer_index(R, seed_length=2, step=3)
        hits = seed_hits(np.zeros(1, np.int64), 5, idx)
        assert hits.n_candidates == idx.n_locs == 13
        r = np.concatenate([tile_candidates(hits, idx, lo, hi)[0]
                            for lo, hi in candidate_chunks(13, 5)])
        assert r.tolist() == idx.locs.tolist()


def extend(R, Q, r, q, ls, step, L):
    return extend_and_classify(
        R, Q, np.asarray(r, np.int64), np.asarray(q, np.int64), ls, step, L
    )


def triples(triplets):
    return [tuple(map(int, m)) for m in triplets]


class TestExtendAndClassify:
    """Only each MEM's leftmost sampled seed hit (left run < Δs) is extended."""

    def test_interior_mem_is_final(self):
        # a match with mismatches on both sides comes out whole
        R = np.array([3, 0, 1, 2, 3, 3], dtype=np.uint8)
        Q = np.array([2, 0, 1, 2, 0, 2], dtype=np.uint8)
        # seed (1,1) of length 2 -> extends to (1,1,3)
        assert triples(extend(R, Q, [1], [1], 2, 1, 2)) == [(1, 1, 3)]

    def test_boundary_touching_goes_out(self):
        # the MEM (0, 0, 3) crosses the tile box at (2, 2): its leftmost hit
        # lies in the tile, so the tile reports it whole, past the box
        R = np.array([0, 1, 2], dtype=np.uint8)
        Q = np.array([0, 1, 2], dtype=np.uint8)
        idx = build_kmer_index(R, seed_length=2, step=1,
                               region_start=0, region_end=2)
        res = stage_tile(R, Q, kmer_codes(Q, 2)[:2], idx, 1)
        assert triples(res.mems) == [(0, 0, 3)]
        assert triples(extend(R, Q, [0], [0], 2, 1, 1)) == [(0, 0, 3)]

    def test_left_run_reaching_step_is_dropped(self):
        R = np.zeros(10, dtype=np.uint8)
        # left runs 4 and 2 reach Δs = 2: each has a twin hit 2 to its left
        assert extend(R, R, [4, 2], [4, 2], 2, 2, 3).size == 0
        # left run 1 < Δs: the leftmost sampled hit, extended both ways
        assert triples(extend(R, R, [1], [1], 2, 2, 3)) == [(0, 0, 10)]

    def test_left_run_just_below_step_survives(self):
        R = np.array([3, 0, 0, 0, 1, 1, 2], dtype=np.uint8)
        Q = np.array([2, 0, 0, 0, 1, 1, 3], dtype=np.uint8)
        # hit at r = 3 has left run 2 = Δs - 1; the MEM is (1, 1, 5)
        assert triples(extend(R, Q, [3], [3], 2, 3, 5)) == [(1, 1, 5)]
        assert extend(R, Q, [3], [3], 2, 2, 5).size == 0

    def test_mem_starting_before_its_first_grid_point(self):
        # grid 0, 4, 8, ...: the MEM (1, 3, 9) starts past grid point 0, so
        # its first sampled hit is r = 4 (left run 3); r = 8 is its twin
        R = np.array([3, 0, 1, 0, 1, 1, 0, 0, 1, 0, 3], dtype=np.uint8)
        Q = np.array([3, 3, 2, 0, 1, 0, 1, 1, 0, 0, 1, 0, 2], dtype=np.uint8)
        r, q = np.array([4, 8]), np.array([6, 10])
        assert triples(extend(R, Q, r, q, 2, 4, 6)) == [(1, 3, 9)]
        assert triples(extend(R, Q, r[::-1], q[::-1], 2, 4, 6)) == [(1, 3, 9)]

    def test_mem_ending_at_the_sequence_end(self):
        R = np.array([1, 2, 0, 3, 0, 3, 0], dtype=np.uint8)
        Q = np.array([0, 3, 0, 3, 0], dtype=np.uint8)
        # the MEM (2, 0, 5) runs off both sequence ends
        assert triples(extend(R, Q, [3, 5], [1, 3], 2, 2, 4)) == [(2, 0, 5)]

    def test_short_mems_are_filtered(self):
        R = np.array([0, 1, 2, 3], dtype=np.uint8)
        Q = np.array([3, 1, 2, 0], dtype=np.uint8)
        assert extend(R, Q, [1], [1], 2, 1, 3).size == 0
        assert triples(extend(R, Q, [1], [1], 2, 1, 2)) == [(1, 1, 2)]

    def test_deduplication(self):
        # two seed hits inside the same MEM give one triplet: the hit at
        # r = 2 has left run 2 = Δs and is dropped
        R = np.array([0, 1, 0, 1, 2], dtype=np.uint8)
        Q = np.array([0, 1, 0, 1, 3], dtype=np.uint8)
        assert triples(extend(R, Q, [0, 2], [0, 2], 2, 2, 2)) == [(0, 0, 4)]

    def test_empty_candidates(self):
        R = np.zeros(4, dtype=np.uint8)
        assert extend(R, R, [], [], 2, 1, 1).size == 0

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 4]), st.data())
    def test_each_mem_exactly_once(self, alphabet, data):
        """All grid hits of the whole space in, every MEM out exactly once:
        no duplicate triplets before any dedup."""
        R = data.draw(dna(min_size=4, max_size=70, alphabet=alphabet))
        Q = data.draw(dna(min_size=4, max_size=70, alphabet=alphabet))
        ls = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(ls, 8))
        step = data.draw(st.integers(1, L - ls + 1))
        r, q = naive_seed_hits(R, Q, full_tile(R.size, Q.size), ls, step)
        got = extend_and_classify(R, Q, r, q, ls, step, L)
        assert unique_mems(got).size == got.size
        assert mems_equal(got, brute_force_mems(R, Q, L))


class TestTripletOrder:
    """The output is a function of the candidate *set*."""

    @settings(max_examples=40, deadline=None)
    @given(dna(min_size=8, max_size=60, alphabet=2),
           dna(min_size=8, max_size=60, alphabet=2), st.data())
    def test_same_sets_whatever_the_candidate_order(self, R, Q, data):
        ls, L, step = 2, 4, 2
        r, q = naive_seed_hits(R, Q, full_tile(R.size, Q.size), ls, step)
        res = extend_and_classify(R, Q, r, q, ls, step, L)
        perm = np.array(data.draw(st.permutations(range(r.size))), dtype=np.int64)
        shuffled = extend_and_classify(R, Q, r[perm], q[perm], ls, step, L)
        assert shuffled.size == res.size
        assert unique_mems(shuffled).tobytes() == unique_mems(res).tobytes()


class TestStageTile:
    @settings(max_examples=40, deadline=None)
    @given(dna(min_size=8, max_size=80, alphabet=2), dna(min_size=8, max_size=80, alphabet=2))
    def test_full_tile_equals_brute_force(self, R, Q):
        """With one tile covering everything and step=1, the stage alone
        must produce exactly the brute-force MEM set."""
        ls, L = 2, 3
        idx = build_kmer_index(R, seed_length=ls, step=1)
        qk = kmer_codes(Q, ls) if Q.size >= ls else np.empty(0, dtype=np.int64)
        res = stage_tile(R, Q, qk, idx, L)
        assert mems_equal(res.mems, brute_force_mems(R, Q, L))

    def test_hit_stats(self):
        R = np.zeros(20, dtype=np.uint8)
        Q = np.zeros(10, dtype=np.uint8)
        idx = build_kmer_index(R, seed_length=2, step=1)
        qk = kmer_codes(Q, 2)
        res = stage_tile(R, Q, qk, idx, 3)
        assert res.n_query_seeds == 9
        assert res.n_query_seeds_with_hits == 9
        assert res.n_candidates == 9 * 19

    def test_hit_stats_count_idle_slots(self):
        R = np.zeros(20, dtype=np.uint8)
        Q = np.array([0, 0, 0, 3, 3, 3, 0, 0], dtype=np.uint8)
        idx = build_kmer_index(R, seed_length=2, step=1)
        qk = kmer_codes(Q, 2)  # AA AA AT TT TT TA AA
        res = stage_tile(R, Q, qk, idx, 3)
        assert res.n_query_seeds == 7
        assert res.n_query_seeds_with_hits == 3

    @pytest.mark.parametrize("balance", [True, False])
    def test_load_balance_counters_match_full_probe(self, balance):
        """The Algorithm-2 counters TileMatchStage feeds from the stage
        stats equal the ones a direct ``lookup`` of every slot gives."""
        R = random_dna(3000, seed=5)
        Q = np.concatenate([mutate(R[500:1500], rate=0.05, seed=6),
                            random_dna(700, seed=7)])
        params = GpuMemParams(min_length=16, seed_length=6,
                              threads_per_block=8, blocks_per_tile=4,
                              load_balancing=balance)
        qk = kmer_codes(Q, params.seed_length)
        tracer = Tracer()
        idx = build_kmer_index(R, seed_length=params.seed_length,
                               step=params.step)
        TileMatchStage(params, tracer=tracer).run(R, Q, qk, idx)
        _, counts = idx.lookup(qk)
        slots = counts.size
        active = int((counts > 0).sum())
        redistributed = slots - active if balance else 0
        metrics = tracer.metrics
        assert 0 < active < slots
        assert metrics.counter("load_balance.seed_slots").value == slots
        assert metrics.counter("load_balance.active_seeds").value == active
        assert metrics.counter("load_balance.idle_threads").value == slots - active
        assert (metrics.counter("load_balance.redistributed_threads").value
                == redistributed)


@st.composite
def repetitive_dna(draw, kind: str, max_size: int = 120):
    """Random 2-/4-letter DNA, a homopolymer or a tandem repeat, the last
    two with a few point substitutions."""
    if kind in ("random2", "random4"):
        return draw(dna(min_size=1, max_size=max_size, alphabet=int(kind[-1])))
    n = draw(st.integers(1, max_size))
    if kind == "homopolymer":
        seq = np.full(n, draw(st.integers(0, 1)), dtype=np.uint8)
    else:
        seq = np.resize(draw(dna(min_size=1, max_size=5, alphabet=2)), n)
    for pos in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        seq[pos] = draw(st.integers(0, 3))
    return seq


class TestLeftmostHitOracle:
    """End to end through ``GpuMem`` on tiles small enough that MEMs cross
    many rows and columns."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["random2", "random4", "homopolymer", "tandem"]),
           st.data())
    def test_equal_to_brute_force(self, kind, data):
        R = data.draw(repetitive_dna(kind))
        Q = data.draw(repetitive_dna(kind))
        if data.draw(st.booleans()):
            lo = data.draw(st.integers(0, R.size - 1))
            hi = data.draw(st.integers(lo + 1, R.size))
            Q = np.concatenate([Q, R[lo:hi]])
        ls = data.draw(st.integers(1, 4))
        L = data.draw(st.integers(ls, 12))
        params = GpuMemParams(
            min_length=L, seed_length=ls,
            step=data.draw(st.integers(1, L - ls + 1)),
            threads_per_block=4, blocks_per_tile=data.draw(st.integers(1, 2)),
        )
        got = GpuMem(params).find_mems(R, Q)
        assert mems_equal(got.array, brute_force_mems(R, Q, L))

    def test_poly_a_is_bounded(self):
        """Every query position of a homopolymer hits every grid point.
        Extending each hit through the whole run costs ~|R|·|Q|²/Δs base
        compares; extending only each MEM's leftmost hit stays far under
        the bound."""
        R = np.zeros(20_000, dtype=np.uint8)
        Q = np.zeros(2_000, dtype=np.uint8)
        t0 = time.perf_counter()
        got = GpuMem(min_length=20).find_mems(R, Q)
        assert time.perf_counter() - t0 <= 5.0
        assert len(got) == 21_961
