"""Pytest plugin: run host-layer tests under the runtime lock tracker.

Register it from a ``conftest.py``::

    pytest_plugins = ["repro.analysis.pytest_lock_tracker"]

Two ways in (mirroring ``pytest_sanitizer``'s device fixtures):

- Take the ``lock_tracker`` fixture: a fresh raise-mode
  :class:`repro.analysis.lock_tracker.LockTracker` is installed as the
  process lock factory (with blocking probes), so every
  ``MemSession``/``BatchRunner``/``MemServer`` lock the test creates is
  tracked. Lock-order inversions raise
  :class:`repro.errors.LockOrderError` at the offending acquisition; any
  findings left at teardown (hold-while-blocked is collect-only) fail the
  test.
- Set ``REPRO_LOCK_TRACKER=1`` (CI's ``tests-locktracker`` leg): one
  process-global tracker covers *every* test in the run without touching
  any test body; an autouse fixture fails each test that contributed new
  findings.

For tests that *expect* findings, build a ``LockTracker(mode="collect")``
directly and inject ``tracker.lock`` as the ``lock_factory``.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import lock_tracker as lt


@pytest.fixture
def lock_tracker():
    """A raise-mode tracker installed as the process-wide lock factory."""
    tracker = lt.LockTracker(mode="raise")
    lt.install(tracker)
    tracker.install_blocking_probes()
    try:
        yield tracker
    finally:
        tracker.remove_blocking_probes()
        lt.uninstall()
    assert not tracker.findings, (
        "lock tracker found concurrency hazards:\n" + tracker.format_findings()
    )


@pytest.fixture(autouse=True)
def _env_lock_tracker():
    """``REPRO_LOCK_TRACKER=1`` mode: per-test accounting on the global tracker.

    The tracker itself is created lazily by the first ``new_lock`` call
    (see :func:`repro.analysis.lock_tracker.active_tracker`); this fixture
    only checks that no *new* findings appeared during the test, so one
    flagged test does not fail every test after it.
    """
    if not os.environ.get("REPRO_LOCK_TRACKER"):
        yield
        return
    tracker = lt.active_tracker()
    before = len(tracker.findings) if tracker is not None else 0
    yield
    tracker = lt.active_tracker()
    if tracker is None:
        return
    fresh = tracker.findings[before:]
    assert not fresh, (
        "lock tracker found concurrency hazards during this test:\n"
        + "\n".join(f.format() for f in fresh)
    )
