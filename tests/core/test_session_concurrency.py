"""MemSession under contention: single-flight builds, safe introspection.

Regression tests for the cache races: duplicate index builds under
concurrent queries (two threads missing the index both built it),
``cache_info()`` racing a concurrent fill, and ``drop_indexes()`` racing
in-flight queries.
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
    """Count (and serialize observation of) real index builds.

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
        session = MemSession(reference, min_length=30)
        barrier = threading.Barrier(HAMMER_THREADS)

        def hammer(_):
            barrier.wait()
            return session.seed_index()

        with ThreadPoolExecutor(HAMMER_THREADS) as pool:
            indexes = list(pool.map(hammer, range(HAMMER_THREADS)))
        # Exactly one build, no matter how many threads missed it.
        assert counting_builds["n"] == 1
        # Every thread got the same index object.
        assert all(ix is indexes[0] for ix in indexes[1:])
        info = session.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == HAMMER_THREADS - 1
        assert info["n_cached"] == 1

    def test_one_build_per_row_concurrent_queries(
        self, reference, counting_builds
    ):
        # Four queries on one shared session, as BatchRunner and MemServer
        # run them: they all miss the cold index together. Serial, so the
        # builds counted are this session's, not the workers'.
        session = MemSession(reference, min_length=30, executor="serial")
        query = reference[1_000:2_000].copy()
        barrier = threading.Barrier(4)

        def query_once(_):
            barrier.wait()
            return session.find_mems(query).as_tuples()

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(query_once, range(4)))
        assert counting_builds["n"] == 1
        assert all(r == results[0] for r in results[1:])

    def test_waiters_are_served_the_cached_index(
        self, reference, counting_builds
    ):
        session = MemSession(reference, min_length=30)
        first = session.seed_index()
        assert session.seed_index() is first
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

    def test_drop_indexes_keeps_held_builder_locks(self, reference):
        # Dropping never touches the build lock, so an in-flight builder's
        # waiters still serialize on it.
        session = MemSession(reference, min_length=30)
        session.seed_index()
        lock = session._build_lock
        lock.acquire()  # simulate a builder mid-flight
        try:
            session.drop_indexes()
            assert session._build_lock is lock
            assert session.cache_info()["n_cached"] == 0
        finally:
            lock.release()
        session.seed_index()
        assert session.cache_info()["n_cached"] == 1

    def test_repeated_drop_cycles_do_not_grow_locks(self, reference):
        session = MemSession(reference, min_length=30)
        lock = session._build_lock
        for _ in range(3):
            session.seed_index()
            session.drop_indexes()
        assert session._build_lock is lock and not lock.locked()
        assert session.cache_info()["misses"] == 3
