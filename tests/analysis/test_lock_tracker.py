"""Runtime lock tracker: inversions, blocked holds, metrics, injection."""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.analysis import lock_tracker as lt
from repro.analysis.lock_tracker import LockTracker, TrackedLock
from repro.core.batch import BatchRunner
from repro.core.session import MemSession
from repro.errors import LockOrderError
from repro.sequence.synthetic import markov_dna

from tests.analysis.planted_host import HoldWhileResult, InvertedLocks


class TestLockOrder:
    def test_inversion_raises_with_cycle_provenance(self):
        tracker = LockTracker(mode="raise")
        planted = InvertedLocks(tracker.lock)
        assert planted.ab() == "ab"
        with pytest.raises(LockOrderError) as excinfo:
            planted.ba()
        err = excinfo.value
        assert "planted.a" in str(err) and "planted.b" in str(err)
        assert len(err.cycle) == 2
        for edge in err.cycle:
            assert edge.thread
            assert "planted_host.py:" in edge.site
            assert "planted_host" in edge.stack

    def test_raise_leaves_no_lock_held(self):
        tracker = LockTracker(mode="raise")
        planted = InvertedLocks(tracker.lock)
        planted.ab()
        with pytest.raises(LockOrderError):
            planted.ba()
        assert not planted.a_lock.locked()
        assert not planted.b_lock.locked()
        assert tracker.held() == ()

    def test_collect_mode_records_instead(self):
        tracker = LockTracker(mode="collect")
        planted = InvertedLocks(tracker.lock)
        planted.ab()
        assert planted.ba() == "ba"
        assert [f.kind for f in tracker.findings] == ["lock-order"]
        assert "planted.a" in tracker.format_findings()
        series = tracker.metrics.to_dict()
        assert series["lock.order_violations"]["value"] == 1

    def test_caught_even_across_two_threads(self):
        # Neither thread ever blocks — the graph still closes the cycle.
        tracker = LockTracker(mode="collect")
        planted = InvertedLocks(tracker.lock)
        first = threading.Thread(target=planted.ab)
        first.start()
        first.join()
        planted.ba()
        finding = tracker.findings[0]
        assert set(finding.locks) == {"planted.a", "planted.b"}

    def test_edges_snapshot(self):
        tracker = LockTracker(mode="collect")
        planted = InvertedLocks(tracker.lock)
        planted.ab()
        assert ("planted.a", "planted.b") in tracker.edges()

    def test_consistent_order_is_clean(self):
        tracker = LockTracker(mode="raise")
        outer, inner = tracker.lock("order.outer"), tracker.lock("order.inner")
        for _ in range(3):
            with outer:
                with inner:
                    pass
        assert tracker.findings == []

    def test_same_lock_class_does_not_self_edge(self):
        # Two per-row build locks share one class name; nesting them is
        # not an ordering observation (lockdep lock-class semantics).
        tracker = LockTracker(mode="raise")
        row0, row1 = tracker.lock("session.build"), tracker.lock("session.build")
        with row0:
            with row1:
                pass
        assert tracker.edges() == {}

    def test_reentrant_rlock_no_edges(self):
        tracker = LockTracker(mode="raise")
        rlock = tracker.rlock("session.re")
        with rlock:
            with rlock:
                assert rlock.locked()
        assert not rlock.locked()
        assert tracker.edges() == {}

    def test_clear_resets_graph_and_findings(self):
        tracker = LockTracker(mode="collect")
        planted = InvertedLocks(tracker.lock)
        planted.ab()
        planted.ba()
        tracker.clear()
        assert tracker.findings == [] and tracker.edges() == {}


class TestHoldWhileBlocked:
    def test_future_result_under_lock_is_flagged(self):
        tracker = LockTracker(mode="collect")
        planted = HoldWhileResult(tracker.lock)
        tracker.install_blocking_probes()
        try:
            with ThreadPoolExecutor(1) as pool:
                assert planted.fetch(pool) == 42
        finally:
            tracker.remove_blocking_probes()
        kinds = [f.kind for f in tracker.findings]
        assert kinds == ["hold-while-blocked"]
        assert "planted.result" in tracker.findings[0].message
        assert tracker.metrics.to_dict()["lock.hold_while_blocked"]["value"] == 1

    def test_result_without_held_locks_is_clean(self):
        tracker = LockTracker(mode="collect")
        tracker.install_blocking_probes()
        try:
            with ThreadPoolExecutor(1) as pool:
                assert pool.submit(min, 1, 2).result() == 1
        finally:
            tracker.remove_blocking_probes()
        assert tracker.findings == []

    def test_queue_get_under_lock_is_flagged(self):
        tracker = LockTracker(mode="collect")
        guard = tracker.lock("probe.queue")
        q: queue.Queue = queue.Queue()
        q.put("item")
        tracker.install_blocking_probes()
        try:
            with guard:
                assert q.get() == "item"
        finally:
            tracker.remove_blocking_probes()
        assert [f.kind for f in tracker.findings] == ["hold-while-blocked"]

    def test_probes_restore_the_originals(self):
        orig_result, orig_get = Future.result, queue.Queue.get
        tracker = LockTracker(mode="collect")
        tracker.install_blocking_probes()
        assert Future.result is not orig_result
        tracker.remove_blocking_probes()
        assert Future.result is orig_result
        assert queue.Queue.get is orig_get


class TestMetrics:
    def test_acquisitions_and_contention(self):
        tracker = LockTracker(mode="raise")
        hot = tracker.lock("metrics.hot")
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with hot:
                entered.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        entered.wait(timeout=5)
        acquired = hot.acquire(blocking=False)  # contended: holder has it
        assert not acquired
        release.set()
        thread.join()
        with hot:
            pass
        series = tracker.metrics.to_dict()
        assert series["lock.acquisitions{lock=metrics.hot}"]["value"] >= 2
        assert series["lock.contended{lock=metrics.hot}"]["value"] >= 1
        assert series["lock.wait_seconds{lock=metrics.hot}"]["count"] >= 1

    def test_blocking_acquire_waits_and_records(self):
        tracker = LockTracker(mode="raise")
        hot = tracker.lock("metrics.blocked")
        entered = threading.Event()

        def holder():
            with hot:
                entered.set()
                time.sleep(0.02)

        thread = threading.Thread(target=holder)
        thread.start()
        entered.wait(timeout=5)
        with hot:  # blocks until the holder sleeps off
            pass
        thread.join()
        hist = tracker.metrics.to_dict()["lock.wait_seconds{lock=metrics.blocked}"]
        assert hist["count"] >= 1


class TestInjectionSeam:
    def test_install_routes_new_lock(self):
        tracker = LockTracker(mode="raise")
        lt.install(tracker)
        try:
            lock = lt.new_lock("seam.lock")
            assert isinstance(lock, TrackedLock)
            assert lock.tracker is tracker
            assert isinstance(lt.new_rlock("seam.rlock"), TrackedLock)
        finally:
            lt.uninstall()
        assert not isinstance(lt.new_lock("seam.after"), TrackedLock)

    def test_env_switch_builds_a_process_tracker(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TRACKER", "1")
        monkeypatch.setattr(lt, "_active_tracker", None)
        monkeypatch.setattr(lt, "_env_checked", False)
        try:
            lock = lt.new_lock("env.lock")
            assert isinstance(lock, TrackedLock)
            tracker = lt.active_tracker()
            assert tracker.mode == "raise"
            assert tracker._probes_installed
        finally:
            tracker = lt.active_tracker()
            if tracker is not None:
                tracker.remove_blocking_probes()
        # monkeypatch teardown restores the module globals.

    def test_env_mode_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TRACKER", "1")
        monkeypatch.setenv("REPRO_LOCK_TRACKER_MODE", "collect")
        monkeypatch.setattr(lt, "_active_tracker", None)
        monkeypatch.setattr(lt, "_env_checked", False)
        try:
            lt.new_lock("env.lock")
            assert lt.active_tracker().mode == "collect"
        finally:
            tracker = lt.active_tracker()
            if tracker is not None:
                tracker.remove_blocking_probes()


class TestRealWorkloadsAreClean:
    @pytest.fixture()
    def reference(self):
        return markov_dna(20_000, seed=7)

    def test_threaded_session_under_tracker(self, reference):
        tracker = LockTracker(mode="raise")
        tracker.install_blocking_probes()
        try:
            # Concurrent queries on one shared session, as BatchRunner and
            # MemServer run them.
            session = MemSession(
                reference, min_length=30, blocks_per_tile=1,
                lock_factory=tracker.lock,
            )
            queries = [reference[i * 400 : i * 400 + 300].copy() for i in range(4)]
            with ThreadPoolExecutor(4) as pool:
                list(pool.map(session.find_mems, queries * 2))
            session.drop_indexes()
            session.cache_info()
        finally:
            tracker.remove_blocking_probes()
        assert tracker.findings == []
        # The tracked hierarchy was really exercised: build-lock holders
        # re-enter the cache lock (build -> cache), never the reverse.
        assert ("session.build", "session.cache") in tracker.edges()
        assert ("session.cache", "session.build") not in tracker.edges()
        assert any(
            name.startswith("lock.acquisitions")
            for name in tracker.metrics.to_dict()
        )

    def test_batch_runner_under_tracker(self, reference):
        tracker = LockTracker(mode="raise")
        tracker.install_blocking_probes()
        try:
            runner = BatchRunner(
                reference, min_length=30, workers=2,
                lock_factory=tracker.lock,
            )
            queries = [reference[i * 500 : i * 500 + 400].copy() for i in range(6)]
            results = list(runner.find_mems(queries))
            assert len(results) == 6
            assert all(r.ok for r in results)
        finally:
            tracker.remove_blocking_probes()
        assert tracker.findings == []

    def test_fixture_smoke(self, lock_tracker):
        lock = lt.new_lock("fixture.lock")
        assert isinstance(lock, TrackedLock)
        assert lock.tracker is lock_tracker
        with lock:
            pass
