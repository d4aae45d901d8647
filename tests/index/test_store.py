"""Tests for the persistent tiered index store (hot → warm → build)."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.index.kmer_index import build_kmer_index
from repro.index.store import (
    STORE_ENV_VAR,
    IndexStore,
    clear_store_registry,
    default_store,
    resolve_store,
    row_key,
    searcher_key,
    store_at,
)

from tests.conftest import plant_dense_bundle


@pytest.fixture
def ref(rng):
    return rng.integers(0, 4, 800).astype(np.uint8)


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_store_registry()
    yield
    clear_store_registry()


def _build_counter(codes, calls, **kw):
    """A builder closure that counts its invocations."""

    def build():
        calls.append(1)
        t0 = time.perf_counter()
        index = build_kmer_index(codes, **kw)
        return index, time.perf_counter() - t0

    return build


FP = "f" * 40  # a syntactically plausible fingerprint


class TestKeying:
    def test_row_key_deterministic(self):
        a = row_key(FP, seed_length=4, step=3, region_start=0, region_end=100)
        b = row_key(FP, seed_length=4, step=3, region_start=0, region_end=100)
        assert a == b and a.startswith(f"row-{FP}-")

    def test_row_key_params_distinct(self):
        base = dict(seed_length=4, step=3, region_start=0, region_end=100)
        keys = {row_key(FP, **base)}
        for change in (
            dict(seed_length=5), dict(step=2),
            dict(region_start=100, region_end=200), dict(region_end=101),
        ):
            keys.add(row_key(FP, **{**base, **change}))
        assert len(keys) == 5  # every param participates in identity

    def test_searcher_key_distinct_from_row_key(self):
        r = row_key(FP, seed_length=4, step=3, region_start=0, region_end=100)
        s = searcher_key(FP, sparseness=1, prefix_table_k=0)
        assert r != s and s.startswith(f"sa-{FP}-")

    def test_keys_are_filesystem_safe(self):
        key = row_key(FP, seed_length=4, step=3, region_start=0, region_end=9)
        assert "/" not in key and key == os.path.basename(key)


class TestTierWalk:
    def test_cold_then_hot_then_warm(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        calls = []
        build = _build_counter(ref, calls, seed_length=4, step=3)

        idx1, sec1, src1 = store.get_or_build_row(
            FP, seed_length=4, step=3, region_start=0,
            region_end=ref.size, build=build,
        )
        assert src1 == "build" and calls == [1]

        idx2, sec2, src2 = store.get_or_build_row(
            FP, seed_length=4, step=3, region_start=0,
            region_end=ref.size, build=build,
        )
        assert src2 == "hot" and idx2 is idx1 and sec2 == 0.0
        assert calls == [1]

        store.clear_hot()
        idx3, _, src3 = store.get_or_build_row(
            FP, seed_length=4, step=3, region_start=0,
            region_end=ref.size, build=build,
        )
        assert src3 == "warm" and calls == [1]  # loaded, not rebuilt
        assert isinstance(idx3.locs, np.memmap)  # mmap-backed
        assert np.array_equal(idx3.locs, idx1.locs)
        assert np.array_equal(idx3.keys, idx1.keys)

    def test_warm_load_maps_keys_and_locs(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        kw = dict(seed_length=4, step=3, region_start=0, region_end=ref.size)
        built, _, _ = store.get_or_build_row(
            FP, build=_build_counter(ref, [], seed_length=4, step=3), **kw
        )
        store.clear_hot()
        idx, _, src = store.get_or_build_row(
            FP, build=_build_counter(ref, [], seed_length=4, step=3), **kw
        )
        assert src == "warm"
        assert isinstance(idx.keys, np.memmap)
        assert np.array_equal(idx.keys, built.keys)
        # O(|R| / Δs) on disk: two int64 arrays, no 4^ℓs table
        assert store.stats()["bytes_mmapped"] == 2 * 8 * built.n_locs

    def test_counters(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        build = _build_counter(ref, [], seed_length=4, step=3)
        kw = dict(seed_length=4, step=3, region_start=0, region_end=ref.size)
        store.get_or_build_row(FP, build=build, **kw)
        store.get_or_build_row(FP, build=build, **kw)
        store.clear_hot()
        store.get_or_build_row(FP, build=build, **kw)
        s = store.stats()
        assert s["builds"] == 1 and s["misses"] == 1
        assert s["hot_hits"] == 1 and s["warm_hits"] == 1
        assert s["bytes_mmapped"] > 0
        assert s["n_bundles"] == 1
        assert s["lock_wait_seconds"] >= 0.0

    def test_distinct_keys_distinct_bundles(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        for step in (2, 3):
            store.get_or_build_row(
                FP, seed_length=4, step=step, region_start=0,
                region_end=ref.size,
                build=_build_counter(ref, [], seed_length=4, step=step),
            )
        assert store.stats()["n_bundles"] == 2

    def test_hot_lru_eviction(self, ref, tmp_path):
        store = IndexStore(tmp_path, hot_capacity=2)
        for step in (1, 2, 3):
            store.get_or_build_row(
                FP, seed_length=4, step=step, region_start=0,
                region_end=ref.size,
                build=_build_counter(ref, [], seed_length=4, step=step),
            )
        assert store.stats()["n_hot"] == 2  # oldest evicted
        assert store.stats()["n_bundles"] == 3  # disk keeps everything

    def test_metrics_and_spans(self, ref, tmp_path):
        from repro.obs import Tracer

        tracer = Tracer()
        store = IndexStore(tmp_path, tracer=tracer)
        kw = dict(seed_length=4, step=3, region_start=0, region_end=ref.size)
        build = _build_counter(ref, [], seed_length=4, step=3)
        store.get_or_build_row(FP, build=build, **kw)
        store.get_or_build_row(FP, build=build, **kw)
        store.clear_hot()
        store.get_or_build_row(FP, build=build, **kw)
        m = tracer.metrics
        assert m.counter("index.store.misses").value == 1
        assert m.counter("index.store.builds").value == 1
        assert m.counter("index.store.hits", tier="hot").value == 1
        assert m.counter("index.store.hits", tier="warm").value == 1
        assert m.counter("index.store.bytes_mmapped").value > 0
        assert m.histogram("index.store.lock_wait_seconds").count >= 1
        names = {s.name for s in tracer.spans}
        assert {"store.get", "store.load", "store.build",
                "store.persist", "store.lock"} <= names

    def test_per_call_tracer_overrides_store_tracer(self, ref, tmp_path):
        from repro.obs import Tracer

        call_tracer = Tracer()
        store = IndexStore(tmp_path)  # null default tracer
        store.get_or_build_row(
            FP, seed_length=4, step=3, region_start=0, region_end=ref.size,
            build=_build_counter(ref, [], seed_length=4, step=3),
            tracer=call_tracer,
        )
        assert call_tracer.metrics.counter("index.store.builds").value == 1


class TestInvalidBundleRecovery:
    def _fill(self, store, ref):
        kw = dict(seed_length=4, step=3, region_start=0, region_end=ref.size)
        _, _, src = store.get_or_build_row(
            FP, build=_build_counter(ref, [], seed_length=4, step=3), **kw
        )
        return kw

    def test_truncated_bundle_is_rebuilt(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        kw = self._fill(store, ref)
        store.clear_hot()
        key = row_key(FP, **kw)
        locs = store.root / key / "locs.npy"
        locs.write_bytes(locs.read_bytes()[:8])  # external corruption
        calls = []
        idx, _, src = store.get_or_build_row(
            FP, build=_build_counter(ref, calls, seed_length=4, step=3), **kw
        )
        assert src == "build" and calls == [1]
        assert store.stats()["invalid_bundles"] == 1
        # the rebuilt bundle is valid again
        store.clear_hot()
        _, _, src2 = store.get_or_build_row(
            FP, build=_build_counter(ref, calls, seed_length=4, step=3), **kw
        )
        assert src2 == "warm" and calls == [1]

    def test_dense_layout_bundle_is_rebuilt_not_served(self, ref, tmp_path):
        # a bundle in the version-2 layout (ptrs/present, no keys) at the
        # session's key counts once as invalid and is rebuilt
        store = IndexStore(tmp_path)
        kw = dict(seed_length=4, step=3)
        from repro.core.session import reference_fingerprint

        key = row_key(reference_fingerprint(ref), region_start=0,
                      region_end=ref.size, **kw)
        bundle = plant_dense_bundle(store.root / key, ref, **kw)
        calls = []
        build = _build_counter(ref, calls, **kw)
        idx, _, src = store.get_or_build_reference_index(ref, build=build, **kw)
        assert src == "build" and calls == [1]
        assert store.stats()["invalid_bundles"] == 1
        expect = build_kmer_index(ref, **kw)
        assert np.array_equal(idx.keys, expect.keys)
        assert np.array_equal(idx.locs, expect.locs)
        assert (bundle / "keys.npy").is_file()  # the rebuild persisted it
        assert not (bundle / "ptrs.npy").exists()
        store.clear_hot()
        _, _, src2 = store.get_or_build_reference_index(ref, build=build, **kw)
        assert src2 == "warm" and calls == [1]
        assert store.stats()["invalid_bundles"] == 1

    def test_wiped_manifest_is_rebuilt(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        kw = self._fill(store, ref)
        store.clear_hot()
        (store.root / row_key(FP, **kw) / "meta.json").write_text("{oops")
        calls = []
        _, _, src = store.get_or_build_row(
            FP, build=_build_counter(ref, calls, seed_length=4, step=3), **kw
        )
        assert src == "build" and calls == [1]


class TestSearcherTier:
    def test_searcher_through_tiers(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        s1, _, src1 = store.get_or_build_searcher(
            ref, sparseness=4, prefix_table_k=3
        )
        assert src1 == "build"
        store.clear_hot()
        s2, _, src2 = store.get_or_build_searcher(
            ref, sparseness=4, prefix_table_k=3
        )
        assert src2 == "warm"
        assert isinstance(s2.sa, np.memmap)
        assert isinstance(s2._pt_lo, np.memmap)  # table loaded, not rebuilt
        assert np.array_equal(s1.sa, s2.sa)

    def test_searcher_params_distinct(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        _, _, a = store.get_or_build_searcher(ref, sparseness=1)
        _, _, b = store.get_or_build_searcher(ref, sparseness=4)
        assert (a, b) == ("build", "build")
        assert store.stats()["n_bundles"] == 2


class TestWholeReference:
    def test_reference_index_round_trip(self, ref, tmp_path):
        store = IndexStore(tmp_path)
        idx, _, src = store.get_or_build_reference_index(
            ref, seed_length=4, step=3
        )
        assert src == "build"
        expect = build_kmer_index(ref, seed_length=4, step=3)
        assert np.array_equal(idx.locs, expect.locs)
        store.clear_hot()
        idx2, _, src2 = store.get_or_build_reference_index(
            ref, seed_length=4, step=3
        )
        assert src2 == "warm"
        assert np.array_equal(idx2.locs, expect.locs)


class TestRegistryAndEnv:
    def test_store_at_shares_instances(self, tmp_path):
        a = store_at(tmp_path)
        b = store_at(tmp_path)
        assert a is b

    def test_default_store_reads_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert default_store() is None
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        store = default_store()
        assert store is not None
        assert str(store.cache_dir) == str(tmp_path.resolve())

    def test_resolve_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert resolve_store(None) is None
        store = store_at(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(tmp_path) is store
        assert resolve_store(str(tmp_path)) is store

    def test_purge(self, tmp_path, rng):
        ref = rng.integers(0, 4, 200).astype(np.uint8)
        store = IndexStore(tmp_path)
        store.get_or_build_reference_index(ref, seed_length=3, step=2)
        assert store.stats()["n_bundles"] == 1
        store.purge()
        assert store.stats()["n_bundles"] == 0
        assert store.stats()["n_hot"] == 0


# -- cross-process single-flight ------------------------------------------------

_HAMMER = """
import sys, time
import numpy as np
from repro.index.store import IndexStore

cache_dir, log_path = sys.argv[1], sys.argv[2]
ref = (np.arange(4096, dtype=np.uint8) * 7 + 3) % 4
store = IndexStore(cache_dir)

def build():
    # Record every real build; the file lock must make this happen once
    # across all racing processes.
    with open(log_path, "a") as fh:
        fh.write("build\\n")
    time.sleep(0.2)  # widen the race window
    from repro.index.kmer_index import build_kmer_index
    t0 = time.perf_counter()
    idx = build_kmer_index(ref, seed_length=4, step=3)
    return idx, time.perf_counter() - t0

fp = "a" * 40
idx, _, source = store.get_or_build_row(
    fp, seed_length=4, step=3, region_start=0, region_end=ref.size,
    build=build,
)
assert int(idx.keys.size) == int(idx.locs.size)
print(source)
"""


class TestCrossProcessSingleFlight:
    def test_n_processes_one_build(self, tmp_path):
        """N racing processes produce exactly one on-disk build per key."""
        cache = tmp_path / "cache"
        log = tmp_path / "builds.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p] or [""]
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _HAMMER, str(cache), str(log)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env, text=True,
            )
            for _ in range(4)
        ]
        sources = []
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            sources.append(out.strip())
        # exactly one process built; everyone else warm-loaded the bundle
        assert log.read_text().count("build") == 1
        assert sorted(sources).count("build") == 1
        assert sources.count("warm") == 3
        # and exactly one bundle landed on disk, with no temp litter
        store = IndexStore(cache)
        bundles = [p for p in store.root.iterdir() if p.is_dir()]
        assert len(bundles) == 1
        assert not [p for p in store.root.iterdir()
                    if p.name.startswith(".") and p.is_dir()]


class TestLockFdLifetime:
    """A build exception inside the single-flight critical section must
    release the per-key fcntl lock (no orphaned .lock fd)."""

    def test_build_exception_releases_key_lock(self, ref, tmp_path,
                                               resource_tracker):
        store = IndexStore(tmp_path)

        def explode():
            raise RuntimeError("planted build failure")

        with pytest.raises(RuntimeError, match="planted build failure"):
            store.get_or_build_row(
                FP, seed_length=4, step=3, region_start=0,
                region_end=ref.size, build=explode,
            )
        # the tracker saw the acquire; the finally released it
        orphaned = [r for r in resource_tracker.leaks() if r.kind == "lock"]
        assert orphaned == [], [r.format() for r in orphaned]

        # and the key is actually lockable again: a fresh build proceeds
        calls = []
        _, _, src = store.get_or_build_row(
            FP, seed_length=4, step=3, region_start=0, region_end=ref.size,
            build=_build_counter(ref, calls, seed_length=4, step=3),
        )
        assert src == "build" and calls == [1]
