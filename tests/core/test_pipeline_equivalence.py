"""Cross-path equivalence: every executor/session path = one MEM set.

The staged pipeline promises that *how* the independent tile rows run —
serially (the seed behaviour), as row bands on worker processes, or
against a warm session cache — never changes *what* is extracted. This
suite pins that promise on random and adversarial inputs, always
cross-checked against the independent ``brute_force_mems`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GpuMem,
    GpuMemParams,
    MemSession,
    PipelineStats,
    brute_force_mems,
    clear_session_cache,
    get_session,
)
from repro.core.params import EXECUTOR_NAMES
from repro.errors import InvalidParameterError
from repro.types import mems_equal, unique_mems

from tests.conftest import dna_pair

#: Small geometry so even tiny inputs exercise many rows/tiles/boundaries.
SMALL = dict(seed_length=3, threads_per_block=4, blocks_per_tile=2)
L = 5


def _params(**overrides) -> GpuMemParams:
    kwargs = dict(min_length=L, **SMALL)
    kwargs.update(overrides)
    return GpuMemParams(**kwargs)


def _all_paths(reference: np.ndarray, query: np.ndarray) -> dict[str, np.ndarray]:
    """Sorted triplet bytes from every supported execution path."""
    out: dict[str, np.ndarray] = {}
    out["serial"] = GpuMem(_params()).find_mems(reference, query).array
    out["process"] = (
        GpuMem(_params(executor="process", workers=2))
        .find_mems(reference, query)
        .array
    )
    session = MemSession(reference, _params())
    out["session-cold"] = session.find_mems(query).array
    out["session-warm"] = session.find_mems(query).array  # 100% cache hits
    return out


def _assert_all_equal(reference, query, paths: dict[str, np.ndarray]) -> None:
    oracle = unique_mems(brute_force_mems(reference, query, L))
    for name, arr in paths.items():
        got = unique_mems(arr)
        assert got.tobytes() == oracle.tobytes(), (
            f"{name} diverged: {got.size} vs oracle {oracle.size} MEMs"
        )
    # Row bands meet only at the host merge: the process executor returns
    # the serial array byte for byte, in the same order.
    assert paths["process"].tobytes() == paths["serial"].tobytes()


class TestPathEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(dna_pair(max_size=120))
    def test_random_pairs(self, pair):
        R, Q = pair
        _assert_all_equal(R, Q, _all_paths(R, Q))

    def test_empty_query(self):
        R = (np.arange(64) % 4).astype(np.uint8)
        Q = np.empty(0, dtype=np.uint8)
        _assert_all_equal(R, Q, _all_paths(R, Q))

    def test_empty_reference(self):
        R = np.empty(0, dtype=np.uint8)
        Q = (np.arange(40) % 4).astype(np.uint8)
        _assert_all_equal(R, Q, _all_paths(R, Q))

    def test_single_letter_highly_repetitive(self):
        # One letter everywhere: maximal candidate density, every extension
        # runs into a tile border, the host merge does all the work.
        R = np.zeros(90, dtype=np.uint8)
        Q = np.zeros(70, dtype=np.uint8)
        paths = _all_paths(R, Q)
        _assert_all_equal(R, Q, paths)
        # one boundary-delimited MEM per diagonal of length >= L
        n_diagonals = sum(
            1 for d in range(-(Q.size - 1), R.size)
            if min(R.size - max(d, 0), Q.size - max(-d, 0)) >= L
        )
        assert all(arr.size == n_diagonals for arr in paths.values())

    def test_periodic_repeats(self):
        R = np.tile(np.array([0, 1, 2, 0, 1], dtype=np.uint8), 30)
        Q = np.tile(np.array([0, 1, 2, 0, 1], dtype=np.uint8), 20)
        _assert_all_equal(R, Q, _all_paths(R, Q))

    def test_query_shorter_than_seed(self):
        R = (np.arange(50) % 4).astype(np.uint8)
        Q = np.array([0, 1], dtype=np.uint8)  # shorter than seed_length
        _assert_all_equal(R, Q, _all_paths(R, Q))

    def test_multi_row_pair_process_bytes_equal_serial(self):
        # One pair over many tile rows: every band split of the process
        # executor must give the serial bytes and the oracle's MEM set.
        rng = np.random.default_rng(5)
        R = rng.integers(0, 4, 400).astype(np.uint8)
        Q = np.concatenate([R[30:250], rng.integers(0, 4, 60).astype(np.uint8)])
        serial = GpuMem(_params()).find_mems(R, Q)
        assert serial.stats.n_rows > 3
        oracle = unique_mems(brute_force_mems(R, Q, L))
        assert unique_mems(serial.array).tobytes() == oracle.tobytes()
        for workers in (1, 2, 3):
            proc = GpuMem(_params(executor="process", workers=workers))
            got = proc.find_mems(R, Q)
            assert got.array.tobytes() == serial.array.tobytes()
            assert got.stats.n_rows == serial.stats.n_rows

    @settings(max_examples=10, deadline=None)
    @given(dna_pair(max_size=100), st.integers(1, 3))
    def test_any_worker_count(self, pair, workers):
        R, Q = pair
        serial = GpuMem(_params()).find_mems(R, Q).array
        arr = (
            GpuMem(_params(executor="process", workers=workers))
            .find_mems(R, Q)
            .array
        )
        assert mems_equal(arr, serial)


class TestSessionCaching:
    def test_warm_session_hits_cache(self):
        rng = np.random.default_rng(7)
        R = rng.integers(0, 4, 600).astype(np.uint8)
        session = MemSession(R, _params())
        build_seconds = session.warm()
        assert build_seconds >= 0.0
        info = session.cache_info()
        assert info["n_cached"] == 1

        Q = np.concatenate([R[50:200], rng.integers(0, 4, 80).astype(np.uint8)])
        result = session.find_mems(Q)
        assert mems_equal(result.array, brute_force_mems(R, Q, L))
        # warm run: the index stage must never rebuild (one lookup per
        # band: one serially, one per worker under executor="process")
        assert result.stats.index_cache_hits >= 1
        assert result.stats.index_cache_misses == 0
        assert result.stats.index_time == 0.0

    def test_batch_matches_individual(self, rng):
        R = rng.integers(0, 3, 400).astype(np.uint8)
        queries = [rng.integers(0, 3, 120).astype(np.uint8) for _ in range(4)]
        session = MemSession(R, _params())
        batch = session.find_mems_batch(queries)
        for q, got in zip(queries, batch, strict=True):
            assert mems_equal(got.array, brute_force_mems(R, q, L))

    def test_warm_is_idempotent_and_cheap(self):
        R = (np.arange(500) % 4).astype(np.uint8)
        session = MemSession(R, _params())
        session.warm()
        n_built = session.cache_info()["n_cached"]
        session.warm()  # second warm builds nothing new
        assert session.cache_info()["n_cached"] == n_built

    def test_drop_indexes_stays_correct(self):
        R = (np.arange(300) % 3).astype(np.uint8)
        Q = R[40:200].copy()
        session = MemSession(R, _params())
        first = session.find_mems(Q)
        session.drop_indexes()
        assert session.cache_info()["n_cached"] == 0
        again = session.find_mems(Q)
        assert mems_equal(first.array, again.array)

    def test_get_session_is_shared_and_keyed(self):
        clear_session_cache()
        R1 = (np.arange(200) % 4).astype(np.uint8)
        R2 = (np.arange(200) % 3).astype(np.uint8)
        a = get_session(R1, _params())
        b = get_session(R1, _params())
        c = get_session(R2, _params())
        d = get_session(R1, _params(min_length=6))
        assert a is b
        assert a is not c
        assert a is not d
        clear_session_cache()


class TestPackOnce:
    """The reference is packed once per session and each query once per run."""

    @pytest.fixture
    def packs(self, monkeypatch):
        """Count packings: ``pack_codes`` calls (by argument) and the word
        packs under them, which also catch per-call packing of arrays."""
        import importlib

        from repro.index import compare

        original_pack, original_words = compare.pack_codes, compare._words
        log = {"pack_codes": [], "words": 0}

        def pack_codes(codes):
            log["pack_codes"].append(codes)
            return original_pack(codes)

        def words(codes):
            log["words"] += 1
            return original_words(codes)

        monkeypatch.setattr(compare, "_words", words)
        modules = [
            importlib.import_module(name)
            for name in ("repro.index.compare", "repro.core.pipeline",
                         "repro.core.session", "repro.core.procpool")
        ]
        for module in modules:
            assert module.pack_codes is original_pack
            monkeypatch.setattr(module, "pack_codes", pack_codes)
        return log

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(11)
        R = rng.integers(0, 4, 600).astype(np.uint8)
        queries = [
            np.concatenate([R[40 * i : 40 * i + 150], rng.integers(0, 4, 60)]).astype(np.uint8)
            for i in range(5)
        ]
        return R, queries

    # The packings counted here are the parent's: under executor="process"
    # (the CI process leg's default) the query is packed in the workers.
    def test_warm_session_packs_reference_once_and_each_query_once(self, packs):
        R, queries = self._inputs()
        session = MemSession(R, _params(executor="serial"))
        session.warm()
        assert len(packs["pack_codes"]) == 1 and packs["words"] == 2
        for Q in queries:
            result = session.find_mems(Q)
            assert mems_equal(result.array, brute_force_mems(R, Q, L))
        packed = packs["pack_codes"]
        assert packed[0] is session.reference
        assert len(packed) == 1 + len(queries)
        assert all(p is not session.reference for p in packed[1:])
        # Two word arrays (forward, reversed) per packing, none per compare.
        assert packs["words"] == 2 * len(packed)

    def test_thread_server_reuses_the_session_packing(self, packs):
        from repro.core import MemServer

        R, queries = self._inputs()
        session = MemSession(R, _params(executor="serial"))
        session.warm()
        with MemServer(session, tier="thread", workers=2, admission_limit=16) as server:
            results = [server.submit(Q) for Q in queries]
            for Q, future in zip(queries, results, strict=True):
                res = future.result(timeout=60)
                assert res.ok
                assert mems_equal(res.value.array, brute_force_mems(R, Q, L))
        assert len(packs["pack_codes"]) == 1 + len(queries)
        assert packs["words"] == 2 * (1 + len(queries))

    def test_run_without_session_packs_each_sequence_once(self, packs):
        R, queries = self._inputs()
        result = GpuMem(_params(executor="serial")).find_mems(R, queries[0])
        assert mems_equal(result.array, brute_force_mems(R, queries[0], L))
        assert len(packs["pack_codes"]) == 2 and packs["words"] == 4


class TestPipelineStatsContract:
    def test_matcher_stats_defined_before_first_call(self):
        g = GpuMem(_params())
        assert isinstance(g.stats, PipelineStats)
        # historical dict-style access works on the zeroed stats too
        assert g.stats["n_tiles"] == 0
        assert g.stats["total_time"] == 0.0
        assert "index_time" in g.stats

    def test_matchset_exposes_same_stats_object(self):
        R = (np.arange(200) % 4).astype(np.uint8)
        g = GpuMem(_params())
        result = g.find_mems(R, R[20:150])
        assert result.stats is g.stats
        assert result.stats["n_rows"] == result.stats.n_rows >= 1

    def test_mapping_protocol_roundtrip(self):
        stats = PipelineStats(n_tiles=7)
        stats["custom"] = "x"
        stats["n_candidates"] = 3
        as_dict = dict(stats)
        assert as_dict["n_tiles"] == 7
        assert as_dict["custom"] == "x"
        assert stats.n_candidates == 3
        assert stats.get("missing", 42) == 42
        back = PipelineStats.from_dict(as_dict)
        assert back.n_tiles == 7
        assert back.extra["custom"] == "x"

    def test_executor_recorded(self):
        R = (np.arange(120) % 4).astype(np.uint8)
        g = GpuMem(_params(executor="process", workers=2))
        g.find_mems(R, R[10:90])
        assert g.stats.executor == "process"
        assert g.stats["workers"] == 2
        serial = GpuMem(_params(executor="serial"))
        serial.find_mems(R, R[10:90])
        assert serial.stats.executor == "serial"
        assert "workers" not in serial.stats


class TestExecutorRegistry:
    def test_params_validate_executor(self):
        assert EXECUTOR_NAMES == ("serial", "process")
        for name in EXECUTOR_NAMES:
            assert _params(executor=name).executor == name
        for name in ("bogus", "threads", "banded"):
            with pytest.raises(InvalidParameterError) as err:
                _params(executor=name)
            assert "('serial', 'process')" in str(err.value)
        with pytest.raises(InvalidParameterError):
            _params(workers=0)
