"""Differential tests: ``MemSession.find_mems`` against the brute-force
oracle over the whole (ℓs, Δs) parameter space, on every execution path.

Inputs are drawn to hit the sorted-key index's edge cases: homopolymers
(one key owns every location), dinucleotide repeats (two keys), a
reference or query shorter than ℓs (no keys or no seeds), and random
DNA. Every query here is far shorter than one candidate chunk; chunk cuts
are covered by ``test_vectorized.py`` and the bounded-memory test below.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import GpuMemParams
from repro.core.reference import brute_force_mems
from repro.core.session import MemSession
from repro.core.simulated import simulated_find_mems
from repro.gpu.device import TEST_DEVICE
from repro.index.compare import BATCH
from repro.index.store import STORE_ENV_VAR, IndexStore, clear_store_registry
from repro.obs import Tracer
from repro.types import mems_equal

from tests.conftest import dna


@st.composite
def sequence(draw, max_size: int = 90):
    """Random 2-/4-letter DNA, poly-A, or a dinucleotide repeat with a few
    substitutions; sometimes shorter than any seed."""
    kind = draw(st.sampled_from(["random2", "random4", "poly_a", "dinucleotide", "tiny"]))
    if kind == "tiny":
        return draw(dna(min_size=0, max_size=3))
    if kind.startswith("random"):
        return draw(dna(min_size=1, max_size=max_size, alphabet=int(kind[-1])))
    n = draw(st.integers(1, max_size))
    if kind == "poly_a":
        seq = np.zeros(n, dtype=np.uint8)
    else:
        seq = np.resize(np.array(draw(st.sampled_from([[0, 1], [2, 3], [0, 3]])),
                                 dtype=np.uint8), n)
    for pos in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        seq[pos] = draw(st.integers(0, 3))
    return seq


@st.composite
def case(draw):
    """``(reference, query, params)`` with ℓs in [1, min(L, 31)] and Δs in
    [1, L - ℓs + 1]; the query sometimes embeds a reference slice."""
    R = draw(sequence())
    Q = draw(sequence())
    if R.size and draw(st.booleans()):
        lo = draw(st.integers(0, R.size - 1))
        Q = np.concatenate([Q, R[lo : draw(st.integers(lo + 1, R.size))]])
    L = draw(st.integers(1, 40))
    ls = draw(st.integers(1, min(L, 31)))
    step = draw(st.integers(1, L - ls + 1))
    return R, Q, GpuMemParams(min_length=L, seed_length=ls, step=step,
                              executor="serial")


def oracle(R, Q, L):
    return brute_force_mems(R, Q, L)


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(case())
    def test_serial(self, c):
        R, Q, params = c
        got = MemSession(R, params).find_mems(Q)
        assert mems_equal(got.array, oracle(R, Q, params.min_length))

    @settings(max_examples=20, deadline=None)
    @given(case(), st.integers(1, 3))
    def test_process_executor(self, c, workers):
        R, Q, params = c
        session = MemSession(R, params.with_(executor="process", workers=workers))
        got = session.find_mems(Q)
        assert mems_equal(got.array, oracle(R, Q, params.min_length))

    @settings(max_examples=40, deadline=None)
    @given(c=case())
    def test_store_warm_path(self, tmp_path_factory, c):
        R, Q, params = c
        clear_store_registry()
        store = IndexStore(tmp_path_factory.mktemp("store"))
        cold = MemSession(R, params, store=store).find_mems(Q)
        store.clear_hot()  # a restart: the next session maps the bundle
        warm_session = MemSession(R, params, store=store)
        warm = warm_session.find_mems(Q)
        assert store.stats()["warm_hits"] == 1
        want = oracle(R, Q, params.min_length)
        assert mems_equal(cold.array, want)
        assert warm.array.tobytes() == cold.array.tobytes()


class TestBackendsAgree:
    @settings(max_examples=15, deadline=None)
    @given(case())
    def test_vectorized_equals_simulated(self, c):
        """At one explicit shared ℓs both backends give the same MEM set.
        ℓs ≤ 9 keeps the simulated dense ``ptrs`` (8·4^ℓs bytes per row)
        inside the test device's 64 MB."""
        R, Q, params = c
        params = params.with_(seed_length=min(params.seed_length, 9), step=None,
                              work_per_thread=None, threads_per_block=4,
                              blocks_per_tile=2)
        vec = MemSession(R, params).find_mems(Q)
        sim, _ = simulated_find_mems(R, Q, params.with_(backend="simulated"),
                                     spec=TEST_DEVICE)
        assert mems_equal(vec.array, sim)


class TestBoundedMemory:
    def test_poly_a_chunks_stay_within_batch(self):
        """Poly-A 20 kb × 2 kb at L = 20: every query seed hits every grid
        point (~5.7 M candidates). The stage must expand them in chunks of
        at most ``BATCH``, and the run's traced allocations stay bounded."""
        R = np.zeros(20_000, dtype=np.uint8)
        Q = np.zeros(2_000, dtype=np.uint8)
        tracer = Tracer()
        session = MemSession(R, min_length=20, executor="serial", tracer=tracer)
        session.warm()
        tracemalloc.start()
        try:
            got = session.find_mems(Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        spans = [s for s in tracer.spans if s.name == "stage:tile_match"]
        assert len(spans) == 1
        attrs = spans[0].attrs
        n_candidates = attrs["n_candidates"]
        assert n_candidates > 20 * BATCH
        assert attrs["n_chunks"] == -(-n_candidates // BATCH)
        assert 0 < attrs["max_chunk"] <= BATCH
        # All candidates at once would hold ~16 bytes each (r, q) plus the
        # extension scratch: > 90 MB here. Chunked, the peak is O(BATCH).
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert len(got) == 21_961
        assert mems_equal(got.array, oracle(R, Q, 20))
