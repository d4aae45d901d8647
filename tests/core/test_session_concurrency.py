"""MemSession under contention: single-flight builds, safe introspection.

Regression tests for the PR-4 cache races: duplicate row builds under
concurrent queries (two threads missing the same row both built its index),
``cache_info()`` iterating the index dict while a concurrent ``put``
mutates it, and ``drop_indexes()`` racing in-flight queries.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.session import MemSession
from repro.sequence.synthetic import markov_dna

HAMMER_THREADS = 8


@pytest.fixture()
def reference():
    return markov_dna(30_000, seed=11)


@pytest.fixture()
def counting_builds(monkeypatch):
    """Count (and serialize observation of) real row-index builds.

    Build counting is only meaningful when every miss actually builds:
    an ambient persistent index store (``REPRO_INDEX_STORE``, as in the
    CI ``tests-store`` leg) would serve rows from disk without ever
    calling the builder, so strip it for these tests.
    """
    from repro.index.store import STORE_ENV_VAR

    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    calls = {"n": 0}
    real = pipeline_mod.build_kmer_index
    lock = threading.Lock()

    def counting(*args, **kwargs):
        with lock:
            calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "build_kmer_index", counting)
    return calls


class TestSingleFlight:
    def test_one_build_per_row_under_hammer(self, reference, counting_builds):
        # blocks_per_tile=1 shrinks the tile so the reference spans many
        # rows — the hammer contends on every one of them.
        session = MemSession(reference, min_length=30, blocks_per_tile=1)
        n_rows = session.n_rows
        assert n_rows > 1
        barrier = threading.Barrier(HAMMER_THREADS)

        def hammer(_):
            barrier.wait()
            return [session.row_index(row) for row in range(n_rows)]

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            all_rows = list(pool.map(hammer, range(HAMMER_THREADS)))
        # Exactly one build per row, no matter how many threads missed it.
        assert counting_builds["n"] == n_rows
        # Every thread got the same index objects.
        for rows in all_rows[1:]:
            for a, b in zip(all_rows[0], rows, strict=True):
                assert a is b
        info = session.cache_info()
        assert info["misses"] == n_rows
        assert info["hits"] == (HAMMER_THREADS - 1) * n_rows
        assert info["n_cached"] == n_rows

    def test_one_build_per_row_concurrent_queries(
        self, reference, counting_builds
    ):
        # Four queries on one shared session, as BatchRunner and MemServer
        # run them: every thread walks the rows in the same order, so they
        # all miss each cold row together.
        session = MemSession(reference, min_length=30, blocks_per_tile=1)
        query = reference[1_000:2_000].copy()
        barrier = threading.Barrier(4)

        def query_once(_):
            barrier.wait()
            return session.find_mems(query).as_tuples()

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(query_once, range(4)))
        assert counting_builds["n"] == session.n_rows
        assert all(r == results[0] for r in results[1:])

    def test_waiters_are_served_the_cached_index(
        self, reference, counting_builds
    ):
        session = MemSession(reference, min_length=30)
        first = session.row_index(0)
        assert session.row_index(0) is first
        assert counting_builds["n"] == 1


class TestIntrospectionUnderLoad:
    def test_cache_info_during_active_queries(self, reference):
        session = MemSession(reference, min_length=30)
        queries = [
            reference[i * 500 : i * 500 + 400].copy() for i in range(8)
        ]
        stop = threading.Event()
        failures: list[BaseException] = []

        def prober():
            while not stop.is_set():
                try:
                    info = session.cache_info()
                    assert info["n_cached"] >= 0
                    assert info["nbytes_packed"] >= 0
                except BaseException as exc:  # pragma: no cover - fail path
                    failures.append(exc)
                    return

        thread = threading.Thread(target=prober)
        thread.start()
        try:
            with ThreadPoolExecutor(4) as pool:
                list(pool.map(session.find_mems, queries * 4))
        finally:
            stop.set()
            thread.join()
        assert not failures

    def test_drop_indexes_during_active_queries(self, reference):
        session = MemSession(reference, min_length=30)
        query = reference[2_000:2_600].copy()
        expected = session.find_mems(query).as_tuples()
        stop = threading.Event()
        failures: list[BaseException] = []

        def dropper():
            while not stop.is_set():
                try:
                    session.drop_indexes()
                except BaseException as exc:  # pragma: no cover - fail path
                    failures.append(exc)
                    return

        thread = threading.Thread(target=dropper)
        thread.start()
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(
                    pool.map(lambda _: session.find_mems(query), range(16))
                )
        finally:
            stop.set()
            thread.join()
        assert not failures
        assert all(r.as_tuples() == expected for r in results)

    def test_drop_indexes_prunes_build_locks(self, reference):
        # Regression: the per-row build locks used to accumulate one Lock
        # per row ever touched for the lifetime of the session.
        session = MemSession(reference, min_length=30, blocks_per_tile=1)
        for row in range(session.n_rows):
            session.row_index(row)
        assert len(session._build_locks) == session.n_rows
        session.drop_indexes()
        assert session._build_locks == {}
        # The cache repopulates (and re-grows locks) on next touch.
        session.row_index(0)
        assert len(session._build_locks) == 1

    def test_drop_indexes_keeps_held_builder_locks(self, reference):
        # An in-flight builder's lock must survive the prune so its
        # waiters still serialize on it.
        session = MemSession(reference, min_length=30, blocks_per_tile=1)
        session.row_index(0)
        session.row_index(1)
        lock0 = session._build_locks[0]
        lock0.acquire()  # simulate a builder mid-flight on row 0
        try:
            session.drop_indexes()
            assert session._build_locks == {0: lock0}
        finally:
            lock0.release()
        session.drop_indexes()
        assert session._build_locks == {}

    def test_repeated_drop_cycles_do_not_grow_locks(self, reference):
        session = MemSession(reference, min_length=30, blocks_per_tile=1)
        for _ in range(3):
            for row in range(session.n_rows):
                session.row_index(row)
            session.drop_indexes()
        assert session._build_locks == {}

    def test_plain_get_put_protocol_still_works(self, reference):
        session = MemSession(reference, min_length=30)
        assert session.get(0) is None
        index = session.row_index(0)
        assert session.get(0) is index
        info = session.cache_info()
        # get(miss), get_or_build(build), get(hit)
        assert info["misses"] == 2
        assert info["hits"] == 1
        session.put(1, index)
        assert session.get(1) is index
