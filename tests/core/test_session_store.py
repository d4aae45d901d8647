"""Session ↔ persistent index store integration: warm restarts.

The tentpole contract: a process (or session) restart against the same
``(reference, params)`` must serve row indexes from the store's warm tier —
mmap loads, near-zero index seconds — instead of rebuilding, and results
must be bit-identical either way.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import GpuMemParams, MemSession
from repro.core.session import clear_session_cache, get_session
from repro.index.store import STORE_ENV_VAR, IndexStore, clear_store_registry, store_at

SMALL = dict(seed_length=3, threads_per_block=4, blocks_per_tile=2)
L = 5


def params(**kw):
    # Serial unless a test asks otherwise: the store counters checked here
    # are the parent session's, which the REPRO_EXECUTOR=process default
    # would move into the workers.
    base = dict(min_length=L, executor="serial", **SMALL)
    base.update(kw)
    return GpuMemParams(**base)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    ref = rng.integers(0, 4, 900).astype(np.uint8)
    qry = np.concatenate([ref[100:300], rng.integers(0, 4, 60).astype(np.uint8)])
    return ref, qry


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    clear_session_cache()
    clear_store_registry()
    yield
    clear_session_cache()
    clear_store_registry()


class TestSessionStore:
    def test_no_store_by_default(self, data):
        ref, _ = data
        assert MemSession(ref, params()).store is None

    def test_results_identical_with_and_without_store(self, data, tmp_path):
        ref, qry = data
        plain = MemSession(ref, params()).find_mems(qry)
        stored = MemSession(ref, params(), store=tmp_path).find_mems(qry)
        assert np.array_equal(plain.array, stored.array)

    def test_fresh_session_warm_starts_from_store(self, data, tmp_path):
        ref, qry = data
        store = store_at(tmp_path)
        s1 = MemSession(ref, params(), store=store)
        m1 = s1.find_mems(qry)
        built = store.stats()["builds"]
        assert built == 1  # the cold run persisted the index

        store.clear_hot()  # simulate a restart (hot tier dies with process)
        s2 = MemSession(ref, params(), store=store)
        m2 = s2.find_mems(qry)
        assert np.array_equal(m1.array, m2.array)
        st = store.stats()
        assert st["builds"] == built  # nothing rebuilt
        assert st["warm_hits"] >= 1
        # a warm load flows through the session's normal miss accounting
        # (it wasn't in *session* memory): counted as a miss, not a hit
        assert s2.cache_info()["misses"] == 1

    def test_warm_never_rebuilds_through_store(self, data, tmp_path):
        ref, _ = data
        store = store_at(tmp_path)
        s1 = MemSession(ref, params(), store=store)
        s1.warm()
        store.clear_hot()
        s2 = MemSession(ref, params(), store=store)
        s2.warm()
        st = store.stats()
        assert st["builds"] == 1  # only the first warm() built
        assert st["warm_hits"] >= 1

    def test_env_var_attaches_store(self, data, tmp_path, monkeypatch):
        ref, qry = data
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        session = MemSession(ref, params())
        assert session.store is not None
        session.find_mems(qry)
        assert session.store.stats()["builds"] == 1

    def test_explicit_store_beats_env(self, data, tmp_path, monkeypatch):
        ref, _ = data
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env"))
        session = MemSession(ref, params(), store=tmp_path / "mine")
        assert str(session.store.cache_dir).endswith("mine")

    def test_get_session_keyed_by_store(self, data, tmp_path):
        ref, _ = data
        a = get_session(ref, params())
        b = get_session(ref, params(), store=tmp_path)
        c = get_session(ref, params(), store=tmp_path)
        assert a is not b and b is c
        assert b.store is store_at(tmp_path)

    def test_different_params_different_bundles(self, data, tmp_path):
        ref, qry = data
        store = store_at(tmp_path)
        MemSession(ref, params(), store=store).find_mems(qry)
        n1 = store.stats()["n_bundles"]
        MemSession(ref, params(seed_length=4), store=store).find_mems(qry)
        assert store.stats()["n_bundles"] > n1

    def test_store_survives_drop_indexes(self, data, tmp_path):
        ref, qry = data
        store = store_at(tmp_path)
        session = MemSession(ref, params(), store=store)
        session.find_mems(qry)
        built = store.stats()["builds"]
        session.drop_indexes()
        store.clear_hot()
        session.find_mems(qry)
        assert store.stats()["builds"] == built  # refilled from warm tier


class TestThreadedExecutorWithStore:
    def test_threads_executor_single_flight_per_row(self, data, tmp_path):
        """Concurrent queries on one stored session build the index once."""
        ref, qry = data
        store = store_at(tmp_path)
        session = MemSession(ref, params(), store=store)
        plain = MemSession(ref, params()).find_mems(qry)
        barrier = threading.Barrier(4)

        def query_once(_):
            barrier.wait()
            return session.find_mems(qry)

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(query_once, range(4)))
        for got in results:
            assert np.array_equal(plain.array, got.array)
        assert store.stats()["builds"] == 1


class TestProcessExecutorWithStore:
    def test_workers_share_the_store(self, data, tmp_path):
        """Spawned workers persist the index; a later serial session
        warm-loads it."""
        ref, qry = data
        store = store_at(tmp_path)
        proc = MemSession(
            ref, params(executor="process", workers=2), store=store
        )
        got = proc.find_mems(qry)
        plain = MemSession(ref, params()).find_mems(qry)
        assert np.array_equal(plain.array, got.array)
        # builds happened in the workers; the parent store saw none but
        # the bundles are on disk under the shared cache dir
        st = store.stats()
        assert st["builds"] == 0
        assert st["n_bundles"] == 1

        serial = MemSession(ref, params(), store=store)
        again = serial.find_mems(qry)
        assert np.array_equal(plain.array, again.array)
        st = store.stats()
        assert st["builds"] == 0  # warm-loaded everything the workers made
        assert st["warm_hits"] + st["hot_hits"] >= 1

    def test_spec_carries_store_dir(self, data, tmp_path):
        from repro.core import procpool

        ref, _ = data
        store = store_at(tmp_path)
        spec = procpool.make_spec(ref, params(), store=store)
        assert spec.store_dir == str(store.cache_dir)
        assert procpool.make_spec(ref, params()).store_dir is None
