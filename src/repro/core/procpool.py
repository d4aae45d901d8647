"""Process-sharded execution: spawn-safe workers over a shared reference.

The GIL caps the thread executor at ~1.1x on CPU-bound rows, so the
``"process"`` tier ships work to a pool of worker *processes* instead. The
pieces that make that cheap and correct live here:

- **Reference transport.** :func:`publish_reference` turns a code array
  into a picklable :class:`ReferenceLocator`: tiny references ride inline
  in the task pickle; large ones are published once as a named
  ``multiprocessing.shared_memory`` segment (via
  :meth:`~repro.sequence.packed.PackedSequence.to_shared`) that every
  worker attaches to zero-copy by name.
- **Task protocol.** A :class:`RowTaskSpec` is the complete, picklable
  description of worker-side work: the reference locator, spawn-safe
  params (row executor forced back to ``"serial"`` so workers never nest
  pools), the query codes, and cache semantics.
- **Worker-side state.** Each worker process keeps attached references and
  warm :class:`~repro.core.session.MemSession` objects in small
  module-level caches, so the per-reference index builds happen once per
  worker, not once per task (the ISSUE's "per-process session warmup").
- **Registries.** Pools and published segments are process-wide and
  reused across executors/runners; ``atexit`` tears both down so no
  segment outlives the owner.

Worker entry points (:func:`run_row_band`, :func:`build_rows`,
:func:`run_query_task`) are module-level functions so they import cleanly
under the ``spawn`` start method (the default; override with
``REPRO_MP_START=fork`` where fork semantics are acceptable).
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.analysis import resource_tracker as _res
from repro.core.params import GpuMemParams
from repro.index.compare import pack_codes
from repro.sequence.packed import PackedSequence, SharedSequenceHandle, pack_bits

#: Packed references at or below this many bytes ride inline in the task
#: pickle; larger ones go through a shared-memory segment. 32 KiB packed is
#: 128k bases — below that, segment setup costs more than the copy.
INLINE_PACKED_BYTES = 1 << 15

#: Shared segments the parent keeps published at once (LRU beyond this).
SHARED_REF_CAPACITY = 4


def start_method() -> str:
    """The multiprocessing start method for worker pools.

    ``spawn`` (default) is portable and never inherits locks mid-state;
    ``REPRO_MP_START=fork`` opts into cheaper startup where that matters.
    """
    return os.environ.get("REPRO_MP_START", "spawn")


@dataclass(frozen=True)
class ReferenceLocator:
    """Picklable pointer to a reference: shared segment or inline bytes."""

    #: Content hash (see :func:`repro.core.session.reference_fingerprint`);
    #: keys the worker-side attach/session caches.
    fingerprint: str
    n_bases: int
    #: Set for shared-memory transport (large references).
    handle: SharedSequenceHandle | None = None
    #: Set for inline transport (small references): 2-bit packed bytes.
    packed: bytes | None = None


@dataclass(frozen=True)
class RowTaskSpec:
    """Everything a worker needs to run pipeline work for one query.

    Fully picklable and self-contained: workers rebuild their pipeline from
    these fields alone, so tasks survive the ``spawn`` start method.
    """

    ref: ReferenceLocator
    #: Spawn-safe params: row executor forced to ``"serial"`` so a worker
    #: never opens its own pool under the parent's pool.
    params: GpuMemParams
    #: Query codes as raw bytes (uint8), empty for index-only work.
    query: bytes = b""
    #: Route worker rows through a per-process session cache.
    use_cache: bool = True
    #: The parent's cache is fully warm — warm the worker session up front
    #: so every row reports a cache hit with zero index seconds, matching
    #: the serial warm-session contract.
    assume_warm: bool = False
    #: Parent-session identity: worker sessions are keyed by it, so a fresh
    #: parent session starts from fresh worker caches (its first query
    #: reports genuine misses, like serial) instead of inheriting another
    #: session's warmth. ``None`` shares worker sessions by content alone
    #: (the always-warm batch/serve tiers, where only warmth matters).
    token: int | None = None
    #: Ship worker-side observability home: the task runs under the
    #: process-local :class:`~repro.obs.shipping.WorkerObs` tracer and the
    #: result carries an :class:`~repro.obs.shipping.ObsPayload` (spans +
    #: metric deltas) for the parent to merge. Set automatically by
    #: :func:`make_spec` when the parent's tracer is enabled.
    ship_obs: bool = False
    #: Persistent index-store cache dir the worker session should attach to
    #: (``None`` = no explicit store; the worker still resolves the
    #: inherited ``REPRO_INDEX_STORE`` environment default, if any). Set by
    #: :func:`make_spec` from the parent session's store, so parent and
    #: workers share one on-disk warm tier and single-flight their builds.
    store_dir: str | None = None


_token_counter = itertools.count(1)


def next_session_token() -> int:
    """A process-unique token tying worker sessions to one parent session."""
    return next(_token_counter)


def worker_params(params: GpuMemParams) -> GpuMemParams:
    """The params a worker runs under: same geometry, serial rows."""
    if params.executor == "serial" and params.workers is None:
        return params
    return params.with_(executor="serial", workers=None)


def make_spec(
    reference: np.ndarray,
    params: GpuMemParams,
    *,
    query: np.ndarray | None = None,
    use_cache: bool = True,
    assume_warm: bool = False,
    token: int | None = None,
    tracer=None,
    store=None,
) -> RowTaskSpec:
    """Build the picklable task spec for ``reference``/``params``/``query``.

    When the caller's tracer is enabled the spec asks workers to ship
    their observability home (``ship_obs``) — kernel spans, session-cache
    counters, and sanitizer events recorded inside the worker then land in
    the parent's registry/trace instead of dying with the process.

    ``store`` (the parent session's :class:`~repro.index.store.IndexStore`,
    or ``None``) travels as its cache-dir path so workers attach their own
    handle to the same on-disk store.
    """
    from repro.obs.tracer import get_tracer

    return RowTaskSpec(
        ref=publish_reference(reference, tracer=tracer),
        params=worker_params(params),
        query=b"" if query is None else np.ascontiguousarray(
            query, dtype=np.uint8
        ).tobytes(),
        use_cache=use_cache,
        assume_warm=assume_warm,
        token=token,
        ship_obs=get_tracer(tracer).enabled,
        store_dir=None if store is None else str(store.cache_dir),
    )


# -- parent-side registries ----------------------------------------------------

_registry_lock = threading.Lock()  # guards: _shared_refs, _pools
#: fingerprint -> owning PackedSequence (keeps its segment alive).
_shared_refs: OrderedDict[str, PackedSequence] = OrderedDict()
#: (start_method, workers) -> live pool.
_pools: dict[tuple[str, int], ProcessPoolExecutor] = {}


def publish_reference(reference: np.ndarray, *, tracer=None) -> ReferenceLocator:
    """A :class:`ReferenceLocator` for ``reference``, publishing if needed.

    Small references are inlined; large ones are placed in (or served from)
    the process-wide shared-segment registry, so many executors/runners
    publishing the same genome share one segment.
    """
    from repro.core.session import reference_fingerprint
    from repro.obs.tracer import get_tracer

    codes = np.ascontiguousarray(reference, dtype=np.uint8)
    fingerprint = reference_fingerprint(codes)
    metrics = get_tracer(tracer).metrics
    packed = pack_bits(codes)
    if packed.nbytes <= INLINE_PACKED_BYTES:
        if metrics.enabled:
            metrics.counter("proc.ref.published", transport="inline").inc()
        return ReferenceLocator(
            fingerprint=fingerprint,
            n_bases=int(codes.size),
            packed=packed.tobytes(),
        )
    evicted: list[PackedSequence] = []
    with _registry_lock:
        seq = _shared_refs.get(fingerprint)
        if seq is not None:
            _shared_refs.move_to_end(fingerprint)
            handle = seq.to_shared()
        else:
            seq = PackedSequence.from_packed(packed, int(codes.size))
            handle = seq.to_shared()
            # The registry keeps this segment alive across runners by
            # design: adopt it so the leak audit charges only segments
            # that escaped the registry.
            _res.adopt("shm", handle.shm_name, "procpool._shared_refs")
            _shared_refs[fingerprint] = seq
            while len(_shared_refs) > SHARED_REF_CAPACITY:
                evicted.append(_shared_refs.popitem(last=False)[1])
    for old in evicted:
        if old._shm is not None:
            _res.disown("shm", old._shm.name)
        old.unlink_shared()
    if metrics.enabled:
        metrics.counter("proc.ref.published", transport="shm").inc()
        metrics.gauge("proc.ref.segments").set(len(_shared_refs))
    return ReferenceLocator(
        fingerprint=fingerprint, n_bases=int(codes.size), handle=handle
    )


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide worker pool of the given width (created on demand)."""
    import multiprocessing as mp

    key = (start_method(), int(workers))
    with _registry_lock:
        pool = _pools.get(key)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=int(workers), mp_context=mp.get_context(key[0])
            )
            _pools[key] = pool
    return pool


def discard_pool(workers: int) -> None:
    """Drop (and shut down) a pool — e.g. after a worker crash broke it."""
    key = (start_method(), int(workers))
    with _registry_lock:
        pool = _pools.pop(key, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown() -> None:
    """Tear down every pool and unlink every published segment."""
    with _registry_lock:
        pools = list(_pools.values())
        _pools.clear()
        refs = list(_shared_refs.values())
        _shared_refs.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)
    for seq in refs:
        if seq._shm is not None:
            _res.disown("shm", seq._shm.name)
        seq.unlink_shared()


atexit.register(shutdown)


def registry_info() -> dict:
    """Introspection for tests: live pools and published segments."""
    with _registry_lock:
        return {
            "n_pools": len(_pools),
            "n_segments": len(_shared_refs),
            "segment_names": [
                seq._shm.name for seq in _shared_refs.values() if seq._shm is not None
            ],
        }


# -- worker-side state ---------------------------------------------------------

#: Sessions one worker process keeps warm at once.
WORKER_SESSION_CAPACITY = 4

_worker_lock = threading.Lock()  # guards: _worker_refs, _worker_sessions, _worker_obs
#: fingerprint -> attached PackedSequence (holds the segment mapping open).
_worker_refs: dict[str, PackedSequence] = {}
#: (fingerprint, params, token, ship_obs) -> per-process MemSession.
_worker_sessions: OrderedDict[tuple, object] = OrderedDict()
#: This process's span/metric capture state (created on first shipped task).
_worker_obs = None


def worker_obs():
    """The process-local :class:`~repro.obs.shipping.WorkerObs` singleton.

    Lives for the worker's whole life so its metric snapshot can turn
    lifetime totals into per-payload increments; sessions built for
    ``ship_obs`` specs record through its tracer.
    """
    global _worker_obs
    from repro.obs.shipping import WorkerObs

    with _worker_lock:
        if _worker_obs is None:
            _worker_obs = WorkerObs()
            # Route this process's res.* counters through the worker
            # registry so they ride the ObsPayload delta freight home
            # alongside proc.*/session.* — the parent sees worker-side
            # segment attaches and closes in its own metrics.
            tracker = _res.active_tracker()
            if tracker is not None:
                tracker.bind_metrics(_worker_obs.tracer.metrics)
        return _worker_obs


def _worker_cleanup() -> None:
    """Detach this process's attached segments at interpreter exit.

    Live numpy views over ``shm.buf`` make ``SharedMemory.__del__`` raise
    ``BufferError`` during teardown; detaching explicitly (without
    materializing — the process is exiting) keeps worker shutdown silent.
    """
    with _worker_lock:
        refs = list(_worker_refs.values())
        _worker_refs.clear()
        _worker_sessions.clear()
    for seq in refs:
        seq.close_shared(materialize=False)


atexit.register(_worker_cleanup)


def _attach_codes(ref: ReferenceLocator) -> np.ndarray:
    """This process's code array for ``ref`` (attaching/unpacking once)."""
    with _worker_lock:
        seq = _worker_refs.get(ref.fingerprint)
        if seq is None:
            if ref.handle is not None:
                seq = PackedSequence.from_shared(ref.handle)
                # Worker keeps the mapping open for its whole life (that
                # is the zero-copy point); _worker_cleanup closes it.
                _res.adopt(
                    "shm-attach", ref.handle.shm_name, "procpool._worker_refs"
                )
            else:
                seq = PackedSequence.from_packed(
                    np.frombuffer(ref.packed, dtype=np.uint8), ref.n_bases
                )
            _worker_refs[ref.fingerprint] = seq
    return seq.codes()


def _session_for(spec: RowTaskSpec):
    """The per-process session for ``(reference, params)``, LRU-cached.

    ``ship_obs`` joins the key: an instrumented session records through
    the worker tracer, an uninstrumented one must stay null-traced, and
    the two must never be conflated (in practice one parent run is
    homogeneous, so the split costs nothing).
    """
    from repro.core.session import MemSession
    from repro.index.store import store_at

    key = (
        spec.ref.fingerprint, spec.params, spec.token, spec.ship_obs,
        spec.store_dir,
    )
    with _worker_lock:
        session = _worker_sessions.get(key)
        if session is not None:
            _worker_sessions.move_to_end(key)
            return session
    codes = _attach_codes(spec.ref)
    tracer = worker_obs().tracer if spec.ship_obs else None
    store = store_at(spec.store_dir, tracer=tracer) if spec.store_dir else None
    session = MemSession(codes, spec.params, tracer=tracer, store=store)
    with _worker_lock:
        session = _worker_sessions.setdefault(key, session)
        _worker_sessions.move_to_end(key)
        while len(_worker_sessions) > WORKER_SESSION_CAPACITY:
            _worker_sessions.popitem(last=False)
    return session


def _ensure_warm(session) -> float:
    """Build any missing row indexes of a worker session; returns seconds."""
    if session.cache_info()["n_cached"] >= session.n_rows:
        return 0.0
    return float(session.warm())


# -- worker entry points -------------------------------------------------------

def _collect_obs(spec: RowTaskSpec):
    """This task's :class:`~repro.obs.shipping.ObsPayload` (or ``None``)."""
    if not spec.ship_obs:
        return None
    return worker_obs().collect()


def run_row_band(spec: RowTaskSpec, rows: list[int]) -> tuple[list, object]:
    """Run the index+match stages for a band of tile rows (worker side).

    Returns ``(results, obs)``: the picklable
    :class:`~repro.core.pipeline.RowResult` list in band order, plus the
    task's :class:`~repro.obs.shipping.ObsPayload` when the spec ships
    observability (``None`` otherwise). With ``assume_warm`` the worker
    session is fully warmed first, so every row reports
    ``cache_hit=True`` / zero index seconds — the same stats a warm serial
    session produces.
    """
    from repro.core.pipeline import Pipeline

    codes = _attach_codes(spec.ref)
    if spec.use_cache:
        session = _session_for(spec)
        if spec.assume_warm:
            _ensure_warm(session)
        pipeline, cache = session.pipeline, session
    else:
        tracer = worker_obs().tracer if spec.ship_obs else None
        pipeline, cache = Pipeline(spec.params, tracer=tracer), None
    query = np.frombuffer(spec.query, dtype=np.uint8)
    plan = pipeline.plan_for(codes.size, query.size)
    query_kmers = pipeline.prep.run(query)
    packed_reference = (
        pack_codes(codes) if cache is None else cache.packed_reference
    )
    packed_query = pack_codes(query)
    results = [
        pipeline.process_row(
            codes, query, query_kmers, plan, row, cache=cache,
            packed_reference=packed_reference, packed_query=packed_query,
        )
        for row in rows
    ]
    return results, _collect_obs(spec)


def build_rows(spec: RowTaskSpec, rows: list[int]) -> tuple[list, object]:
    """Build row indexes fresh (worker side): ``(row, index, seconds)``.

    Always measures a real build — the warm path's Table-III semantics —
    and feeds the result into this worker's session cache so subsequent
    queries here start warm. Returns ``(triples, obs)`` like
    :func:`run_row_band`.
    """
    from repro.core.pipeline import Pipeline

    codes = _attach_codes(spec.ref)
    tracer = worker_obs().tracer if spec.ship_obs else None
    pipeline = Pipeline(spec.params, tracer=tracer)
    plan = pipeline.plan_for(codes.size, spec.params.tile_size)
    session = _session_for(spec) if spec.use_cache else None
    out = []
    for row in rows:
        index, seconds, _ = pipeline.row_index.run(codes, plan, row, cache=None)
        if session is not None:
            session.put(row, index)
        out.append((row, index, seconds))
    return out, _collect_obs(spec)


def run_query_task(spec: RowTaskSpec, index: int, label: str | None) -> dict:
    """Extract all MEMs of one query (worker side of the batch/serve tiers).

    Never raises: failures come back as a structured ``ok=False`` payload
    (with a picklable exception) so one poisoned query cannot poison the
    pool protocol. The worker session is warmed on first touch, so steady
    state is match-only cost. The ``"obs"`` key carries the task's
    :class:`~repro.obs.shipping.ObsPayload` (``None`` unless the spec
    ships observability) — on errors too, so a failing query's worker
    spans still reach the parent trace.
    """
    t0 = time.perf_counter()
    try:
        session = _session_for(spec)
        if spec.assume_warm:
            _ensure_warm(session)
        query = np.frombuffer(spec.query, dtype=np.uint8)
        result = session.find_mems(query)
        return {
            "ok": True,
            "index": index,
            "label": label,
            "array": result.array,
            "stats": result.stats.to_dict(),
            "seconds": time.perf_counter() - t0,
            "obs": _collect_obs(spec),
        }
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        try:
            pickle.dumps(exc)
            error: BaseException = exc
        except Exception:
            error = RuntimeError(repr(exc))
        return {
            "ok": False,
            "index": index,
            "label": label,
            "error": error,
            "seconds": time.perf_counter() - t0,
            "obs": _collect_obs(spec),
        }
