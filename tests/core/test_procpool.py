"""Process-sharded execution tier: spawn safety, equivalence, registries.

Everything here runs against real spawned worker processes (kept small:
one shared ``workers=2`` pool, reused across tests via the process-wide
pool registry), plus pure pickle round-trip checks that gate what may
cross the process boundary.
"""

import pickle

import numpy as np
import pytest

from repro.core import GpuMem, GpuMemParams, MemSession, brute_force_mems
from repro.core import procpool
from repro.core.batch import BatchError, BatchResult
from repro.core.params import EXECUTOR_NAMES
from repro.types import mems_equal, unique_mems

SMALL = dict(seed_length=3, threads_per_block=4, blocks_per_tile=2)
L = 5
WORKERS = 2


def params(**kw):
    base = dict(min_length=L, **SMALL)
    base.update(kw)
    return GpuMemParams(**base)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    ref = rng.integers(0, 4, 600).astype(np.uint8)
    qry = np.concatenate([ref[50:200], rng.integers(0, 4, 80).astype(np.uint8)])
    return ref, qry


class TestSpawnSafety:
    """Pickle round-trips for everything that crosses the boundary."""

    def test_params_round_trip(self):
        p = params(executor="process", workers=4)
        assert pickle.loads(pickle.dumps(p)) == p

    def test_worker_params_forces_serial(self):
        wp = procpool.worker_params(params(executor="process", workers=4))
        assert wp.executor == "serial"
        assert wp.workers is None
        # and survives the boundary without re-resolving from env
        assert pickle.loads(pickle.dumps(wp)).executor == "serial"

    def test_worker_params_noop_for_serial(self):
        p = params(executor="serial")
        assert procpool.worker_params(p) is p

    def test_batch_result_round_trip(self):
        r = BatchResult(index=1, label="x", value=[1, 2], seconds=0.5)
        r2 = pickle.loads(pickle.dumps(r))
        assert (r2.index, r2.label, r2.value, r2.ok) == (1, "x", [1, 2], True)

    def test_batch_error_round_trip(self):
        e = BatchError(index=2, label=None, error=ValueError("boom"),
                       seconds=0.1)
        e2 = pickle.loads(pickle.dumps(e))
        assert not e2.ok
        assert isinstance(e2.error, ValueError)
        assert str(e2.error) == "boom"

    def test_spec_round_trip_inline(self, data):
        ref, qry = data
        spec = procpool.make_spec(ref, params(), query=qry)
        spec2 = pickle.loads(pickle.dumps(spec))
        assert spec2.ref.packed == spec.ref.packed
        assert spec2.ref.fingerprint == spec.ref.fingerprint
        assert spec2.query == qry.astype(np.uint8).tobytes()
        # a 600-base reference packs far below the inline threshold
        assert spec.ref.handle is None

    def test_large_reference_uses_shared_segment(self):
        rng = np.random.default_rng(3)
        big = rng.integers(0, 4, 4 * procpool.INLINE_PACKED_BYTES + 64)
        locator = procpool.publish_reference(big.astype(np.uint8))
        assert locator.packed is None
        assert locator.handle is not None
        info = procpool.registry_info()
        assert locator.handle.shm_name in info["segment_names"]
        # republishing the same genome reuses the one segment
        again = procpool.publish_reference(big.astype(np.uint8))
        assert again.handle.shm_name == locator.handle.shm_name


class TestProcessExecutor:
    def test_registered(self):
        assert "process" in EXECUTOR_NAMES
        p = params(executor="process", workers=WORKERS)
        assert (p.executor, p.workers) == ("process", WORKERS)
        assert MemSession(np.zeros(8, np.uint8), p).pipeline.workers == WORKERS

    def test_invalid_workers(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            params(executor="process", workers=0)

    def test_bands_are_contiguous_and_near_equal(self):
        rows = list(range(10))
        for workers in (1, 3, 4, 10, 16):
            bands = procpool._bands(rows, workers)
            assert sum(bands, []) == rows
            assert len(bands) == min(workers, len(rows))
            sizes = [len(b) for b in bands]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert procpool._bands([], 4) == []

    def test_cold_one_shot_matches_oracle(self, data):
        ref, qry = data
        matcher = GpuMem(params(executor="process", workers=WORKERS))
        got = matcher.find_mems(ref, qry)
        oracle = unique_mems(brute_force_mems(ref, qry, L))
        assert unique_mems(got.array).tobytes() == oracle.tobytes()
        assert matcher.stats.executor == "process"
        assert matcher.stats["workers"] == WORKERS

    def test_matches_serial_executor(self, data):
        ref, qry = data
        serial = GpuMem(params(executor="serial")).find_mems(ref, qry)
        proc = GpuMem(params(executor="process", workers=WORKERS)).find_mems(
            ref, qry
        )
        assert mems_equal(proc.array, serial.array)

    def test_warm_session_contract(self, data):
        ref, qry = data
        session = MemSession(ref, params(executor="process", workers=WORKERS))
        assert session.warm() >= 0.0
        info = session.cache_info()
        assert info["n_cached"] == 1
        result = session.find_mems(qry)
        assert mems_equal(result.array, brute_force_mems(ref, qry, L))
        # warm runs must show the serial tier's all-hit accounting: one
        # index lookup per band, every one a hit
        assert result.stats.index_cache_hits == WORKERS
        assert result.stats.index_cache_misses == 0
        assert result.stats.index_time == 0.0

    def test_warm_is_idempotent(self, data):
        ref, _ = data
        session = MemSession(ref, params(executor="process", workers=WORKERS))
        session.warm()
        before = session.cache_info()["n_cached"]
        session.warm()
        assert session.cache_info()["n_cached"] == before

    def test_cold_session_counts_misses(self, data):
        ref, qry = data
        session = MemSession(ref, params(executor="process", workers=WORKERS))
        result = session.find_mems(qry)
        # a fresh parent session starts fresh worker sessions: the first
        # band a worker runs builds its index
        stats = result.stats
        assert stats.index_cache_misses >= 1
        assert stats.index_cache_hits + stats.index_cache_misses == WORKERS
        assert mems_equal(result.array, brute_force_mems(ref, qry, L))

    def test_pool_registry_reuses_pools(self):
        pool = procpool.get_pool(WORKERS)
        assert procpool.get_pool(WORKERS) is pool
        assert procpool.registry_info()["n_pools"] >= 1


class TestRunQueryTask:
    """The batch/serve worker entry point, driven in-process."""

    def test_ok_payload(self, data):
        ref, qry = data
        spec = procpool.make_spec(ref, params(), query=qry, assume_warm=True)
        payload = procpool.run_query_task(spec, 3, "lbl")
        assert payload["ok"]
        assert (payload["index"], payload["label"]) == (3, "lbl")
        assert mems_equal(
            unique_mems(payload["array"]),
            brute_force_mems(ref, qry, L),
        )
        assert payload["seconds"] >= 0.0

    def test_error_payload_is_picklable(self, data):
        ref, _ = data
        # a query with out-of-range codes fails validation inside the task
        bad = np.full(40, 9, dtype=np.uint8)
        spec = procpool.make_spec(ref, params(), query=bad)
        payload = procpool.run_query_task(spec, 0, None)
        assert not payload["ok"]
        err = pickle.loads(pickle.dumps(payload["error"]))
        assert isinstance(err, Exception)


class TestObsShipping:
    """Worker entry points carry observability freight when asked."""

    def _spec(self, data, **kw):
        from repro.obs import Tracer

        ref, _ = data
        return procpool.make_spec(ref, params(), tracer=Tracer(), **kw)

    def test_make_spec_sets_ship_obs_from_tracer(self, data):
        ref, _ = data
        assert procpool.make_spec(ref, params()).ship_obs is False
        assert self._spec(data).ship_obs is True

    def test_run_query_task_obs_none_without_tracer(self, data):
        ref, qry = data
        spec = procpool.make_spec(ref, params(), query=qry)
        payload = procpool.run_query_task(spec, 0, None)
        assert payload["ok"]
        assert payload["obs"] is None

    def test_run_query_task_ships_payload(self, data):
        from repro.obs.shipping import ObsPayload

        _, qry = data
        spec = self._spec(data, query=qry)
        payload = procpool.run_query_task(spec, 0, "q0")
        assert payload["ok"]
        obs = payload["obs"]
        assert isinstance(obs, ObsPayload)
        assert obs.n_spans >= 1  # at least the pipeline spans
        assert pickle.loads(pickle.dumps(payload))["obs"] == obs

    def test_failing_query_task_still_ships_obs(self, data):
        from repro.obs.shipping import ObsPayload

        spec = self._spec(data, query=np.full(30, 9, dtype=np.uint8))
        payload = procpool.run_query_task(spec, 0, None)
        assert not payload["ok"]
        assert isinstance(payload["error"], Exception)
        assert isinstance(payload["obs"], ObsPayload)

    def test_run_row_band_tuple_shape(self, data):
        from repro.obs.shipping import ObsPayload

        ref, qry = data
        plain = procpool.make_spec(ref, params(), query=qry)
        result, obs = procpool.run_band(plain, 0, 40)
        assert result.q_lo == 0 and obs is None
        shipped_result, shipped = procpool.run_band(
            self._spec(data, query=qry), 0, 40
        )
        assert isinstance(shipped, ObsPayload)
        assert shipped_result.mems.tobytes() == result.mems.tobytes()


def _attach_and_die(handle):
    """Spawn target: attach to the parent's segment, then die uncleanly —
    the worker never reaches close_shared (the crash window of the
    attach/compute/detach protocol)."""
    import os
    import signal

    from repro.sequence.packed import PackedSequence

    seq = PackedSequence.from_shared(handle)
    assert len(seq) == handle.n_bases
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerCrash:
    """A worker dying mid-attach must not strand the parent's teardown."""

    def test_killed_worker_does_not_strand_parent_unlink(self):
        import multiprocessing as mp
        import signal

        from multiprocessing import shared_memory

        from repro.sequence.packed import PackedSequence

        seq = PackedSequence("ACGT" * 200, name="crash-ref")
        handle = seq.to_shared()
        ctx = mp.get_context("spawn")
        proc = ctx.Process(target=_attach_and_die, args=(handle,))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL
        # The crashed attacher's multiprocessing resource tracker may (on
        # pre-3.13 attach registration) reap the segment name before the
        # owner gets here; unlink_shared must succeed either way.
        seq.unlink_shared()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.shm_name)

    def test_unlink_tolerates_externally_reaped_segment(self):
        """Deterministic form of the crash race: the segment name is
        destroyed out from under the owner before its unlink runs."""
        from multiprocessing import shared_memory

        from repro.sequence.packed import PackedSequence

        seq = PackedSequence("ACGT" * 200)
        handle = seq.to_shared()
        reaper = shared_memory.SharedMemory(name=handle.shm_name)
        reaper.close()
        reaper.unlink()  # poses as the crashed worker's reaper
        seq.unlink_shared()  # must swallow the FileNotFoundError
