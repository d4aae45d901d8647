"""Reusable index sessions: build a reference's row indexes once, query forever.

copMEM's lesson (Grabowski & Bieniecki 2018) is that a lightweight sampled
k-mer index *amortized across queries* is the dominant cost lever for MEM
extraction — yet the seed code rebuilt every per-row index on every
``find_mems`` call. A :class:`MemSession` binds ``(reference, params)``
once, lazily caches the per-row seed indexes as the pipeline first touches
them, and then serves unlimited ``find_mems(query)`` calls at match-only
cost. Every many-query consumer — :class:`repro.core.mapping.ReadMapper`,
:func:`repro.core.distance.distance_matrix`, both-strand extraction, the
CLI's per-record mode — is built on top of it.

A small module-level LRU (:func:`get_session`) additionally shares
sessions *between* calls keyed by reference fingerprint + params, so even
API entry points that take raw sequences (``mem_distance``) amortize.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.analysis.lock_tracker import new_lock
from repro.core.executors import RowExecutor, make_executor
from repro.core.params import GpuMemParams
from repro.core.pipeline import Pipeline, PipelineStats, as_codes
from repro.index.compare import pack_codes
from repro.index.kmer_index import KmerSeedIndex
from repro.obs.tracer import Tracer, get_tracer
from repro.types import MatchSet


class MemSession:
    """MEM extraction bound to one ``(reference, params)`` pair.

    The session is the pipeline's index cache: rows are built on first
    touch (or all at once via :meth:`warm`) and reused by every subsequent
    query, including reverse-complement strands and batch workloads.

    Example::

        session = MemSession(reference, min_length=20)
        session.warm()                      # optional: prebuild all rows
        for read in reads:
            mems = session.find_mems(read)  # match-only cost per read
    """

    def __init__(
        self,
        reference,
        params: GpuMemParams | None = None,
        /,
        *,
        executor: RowExecutor | str | None = None,
        tracer: Tracer | None = None,
        lock_factory=None,
        store=None,
        **kwargs,
    ):
        if isinstance(executor, str):
            # Route registry names through the params so they validate and
            # show up in ``describe()`` like any other knob.
            kwargs["executor"] = executor
            executor = None
        if params is None:
            params = GpuMemParams(**kwargs)
        elif kwargs:
            params = params.with_(**kwargs)
        self.params = params
        self.tracer = get_tracer(tracer)
        self.reference = as_codes(reference)
        #: The reference packed once for every comparison of every query
        #: (immutable, so concurrent queries share it without a lock).
        self.packed_reference = pack_codes(self.reference)
        #: Injectable lock factory (``name -> lock``); the default
        #: ``new_lock`` yields plain locks unless a runtime
        #: :class:`repro.analysis.lock_tracker.LockTracker` is installed.
        self._lock_factory = lock_factory or new_lock
        if executor is None:
            executor = make_executor(
                params.executor, params.workers, lock_factory=self._lock_factory
            )
        self.pipeline = Pipeline(params, executor=executor, tracer=self.tracer)
        #: Stats of the most recent :meth:`find_mems` run.
        self.stats = PipelineStats(
            backend=params.backend,
            executor=self.pipeline.executor.name,
            params=params.describe(),
        )
        #: The persistent tiered index store behind this session's cold
        #: path (:mod:`repro.index.store`): ``store=`` accepts an
        #: :class:`~repro.index.store.IndexStore`, a cache-dir path, or
        #: ``None`` — which resolves the ``REPRO_INDEX_STORE`` environment
        #: default (and stays ``None`` when that is unset).
        from repro.index.store import resolve_store

        self.store = resolve_store(store)
        self._fingerprint: str | None = None
        self._row_indexes: dict[int, KmerSeedIndex] = {}
        self._lock = self._lock_factory("session.cache")  # guards: _row_indexes, _build_locks, _hits, _misses, _n_queries
        #: Per-row single-flight build locks, created lazily under _lock
        #: and pruned by :meth:`drop_indexes` (one lock class: "session.build").
        self._build_locks: dict[int, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._n_queries = 0

    # -- index cache protocol (consumed by RowIndexStage) ----------------------
    def get(self, row: int) -> KmerSeedIndex | None:
        """Cache-protocol read: the row's index, or None if not yet built."""
        with self._lock:
            index = self._row_indexes.get(row)
            if index is None:
                self._misses += 1
            else:
                self._hits += 1
        return index

    def put(self, row: int, index: KmerSeedIndex) -> None:
        """Cache-protocol write: remember a freshly built row index."""
        with self._lock:
            self._row_indexes[row] = index

    def get_or_build(self, row: int, build) -> tuple[KmerSeedIndex, float, bool]:
        """Single-flight cache fill: ``(index, build_seconds, cache_hit)``.

        ``build`` is a zero-argument callable returning
        ``(KmerSeedIndex, seconds)``. Concurrent callers that miss the same
        row serialize on a per-row lock so exactly one of them builds; the
        others block briefly and are then served the cached index (counted
        as hits — only the one real build is a miss). This is what makes
        the session safe under the ``threads`` executor and under
        query-level concurrency (:class:`repro.core.batch.BatchRunner`).
        """
        with self._lock:
            index = self._row_indexes.get(row)
            if index is not None:
                self._hits += 1
                return index, 0.0, True
            row_lock = self._build_locks.setdefault(
                row, self._lock_factory("session.build")
            )
        with row_lock:
            # Re-check: a concurrent builder may have filled the row while
            # we waited on its lock.
            with self._lock:
                index = self._row_indexes.get(row)
                if index is not None:
                    self._hits += 1
                    return index, 0.0, True
            index, seconds = self._build_row(row, build)
            with self._lock:
                self._misses += 1
                self._row_indexes[row] = index
            return index, seconds, False

    def _build_row(self, row: int, build) -> tuple[KmerSeedIndex, float]:
        """The cold path of :meth:`get_or_build`: direct build, or the
        persistent store's tier walk when one is attached.

        With a store, a restarted process (or a sibling worker) that
        already persisted this row serves it as an mmap-backed warm load —
        near-zero seconds instead of a rebuild — and concurrent cold
        builders across processes single-flight on the store's file lock.
        Store loads keep the session-counter semantics of a build (the row
        was not in *this* session's memory); the ``index.store.*`` metrics
        carry the tier split.
        """
        if self.store is None:
            return build()
        ts = self.params.tile_size
        r0 = row * ts
        index, seconds, _source = self.store.get_or_build_row(
            self.fingerprint(),
            seed_length=self.params.seed_length,
            step=self.params.step,
            region_start=r0,
            region_end=min(r0 + ts, int(self.reference.size)),
            build=build,
            tracer=self.tracer,
        )
        return index, seconds

    def fingerprint(self) -> str:
        """Content hash of the bound reference (store / procpool key)."""
        if self._fingerprint is None:
            # Benign race: concurrent first callers compute the same value.
            self._fingerprint = reference_fingerprint(self.reference)
        return self._fingerprint

    # -- geometry --------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Tile rows of the reference (query-independent)."""
        ts = self.params.tile_size
        return -(-self.reference.size // ts) if self.reference.size else 0

    def row_index(self, row: int) -> KmerSeedIndex:
        """The (cached) partial seed index of one tile row."""
        plan = self.pipeline.plan_for(self.reference.size, self.params.tile_size)
        index, _, _ = self.pipeline.row_index.run(
            self.reference, plan, row, cache=self
        )
        return index

    # -- lifecycle -------------------------------------------------------------
    def warm(self) -> float:
        """Build every missing row index now; returns the build seconds.

        On a fresh session this is exactly the paper's Table III quantity
        (index construction without matching); on a warm session it is ~0.
        """
        with self.tracer.span(
            "session.warm", cat="session", n_rows=self.n_rows
        ):
            return self.pipeline.build_row_indexes(self.reference, cache=self)

    def drop_indexes(self) -> None:
        """Release all cached row indexes (memory pressure valve).

        Safe to call while queries are in flight: the swap happens under
        the cache lock, so concurrent row builds either land before the
        drop (and are released) or after it (and repopulate the cache).

        The per-row build locks are pruned along with the indexes they
        single-flight — without this they accumulated one Lock per row
        ever touched for the lifetime of the session. A lock currently
        held by an in-flight builder is kept (its waiters still
        serialize on it); a freshly dropped row simply grows a new one
        on next touch, and the worst case around a drop is one extra
        rebuild of that row, never a wrong result.
        """
        with self._lock:
            self._row_indexes = {}
            self._build_locks = {
                row: lock for row, lock in self._build_locks.items()
                if lock.locked()
            }

    def cache_info(self) -> dict:
        """Cache effectiveness counters and resident footprint.

        Counters and the resident-index list are snapshotted under the
        cache lock, so this is safe to call while the threads executor (or
        a :class:`~repro.core.batch.BatchRunner`) is mutating the cache.
        """
        with self._lock:
            indexes = list(self._row_indexes.values())
            hits, misses = self._hits, self._misses
            n_queries = self._n_queries
        return {
            "n_rows": self.n_rows,
            "n_cached": len(indexes),
            "hits": hits,
            "misses": misses,
            "n_queries": n_queries,
            "nbytes_packed": sum(ix.nbytes_packed for ix in indexes),
        }

    # -- extraction ------------------------------------------------------------
    def find_mems(self, query) -> MatchSet:
        """All MEMs of ``query`` against the bound reference."""
        query = as_codes(query)
        with self._lock:
            self._n_queries += 1
        with self.tracer.span(
            "session.find_mems", cat="session", n_query=int(query.size)
        ):
            if self.params.backend == "simulated":
                from repro.core.simulated import simulated_find_mems

                mems, stats = simulated_find_mems(
                    self.reference, query, self.params, tracer=self.tracer
                )
                self.stats = PipelineStats.from_dict(stats)
            else:
                mems, self.stats = self.pipeline.run(
                    self.reference, query, index_cache=self
                )
        self._publish_cache_stats(self.stats)
        return MatchSet(mems, stats=self.stats)

    def _publish_cache_stats(self, stats: PipelineStats) -> None:
        """Surface the cumulative row-index cache counters (satellite: the
        ``core/session.py`` LRU counters were invisible outside
        ``cache_info()``) through PipelineStats and the metrics registry."""
        with self._lock:
            hits, misses = self._hits, self._misses
        stats.session_cache_hits = hits
        stats.session_cache_misses = misses
        metrics = self.tracer.metrics
        if metrics.enabled:
            info = self.cache_info()
            metrics.counter("session.cache.queries").inc()
            metrics.gauge("session.cache.hits").set(hits)
            metrics.gauge("session.cache.misses").set(misses)
            metrics.gauge("session.cache.rows_cached").set(info["n_cached"])
            metrics.gauge("session.cache.resident_bytes").set(
                info["nbytes_packed"]
            )

    def find_mems_batch(self, queries) -> list[MatchSet]:
        """Extract against many queries, reusing the cached indexes."""
        return [self.find_mems(query) for query in queries]

    def __repr__(self) -> str:
        with self._lock:
            n_cached = len(self._row_indexes)
        return (
            f"MemSession(|R|={self.reference.size}, "
            f"rows={n_cached}/{self.n_rows} cached, "
            f"executor={self.pipeline.executor.name!r})"
        )


# -- shared session cache ------------------------------------------------------

#: Most sessions a process keeps warm at once via :func:`get_session`.
SESSION_CACHE_SIZE = 8

_session_cache: OrderedDict[tuple, MemSession] = OrderedDict()
_session_cache_lock = threading.Lock()  # guards: _session_cache, _lru_hits, _lru_misses
#: Cumulative process-wide LRU effectiveness (see :func:`session_cache_info`).
_lru_hits = 0
_lru_misses = 0


def reference_fingerprint(codes: np.ndarray) -> str:
    """Stable content hash of a code array (session cache key component)."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    return hashlib.sha1(codes.tobytes()).hexdigest()


def get_session(
    reference, params: GpuMemParams | None = None, /, *,
    tracer: Tracer | None = None, store=None, **kwargs
) -> MemSession:
    """A shared :class:`MemSession` for ``(reference, params)``.

    Sessions are cached in a small process-wide LRU keyed by the reference
    content hash and the (hashable, frozen) params, so repeated calls with
    the same sequence — e.g. ``mem_distance`` in both directions, or many
    ``find_rare_mems`` calls against one genome — reuse the same indexes.
    ``tracer`` instruments a freshly built session (an LRU hit keeps the
    session's original tracer) and records the LRU hit/miss either way.

    ``store`` (an :class:`~repro.index.store.IndexStore`, a cache-dir
    path, or ``None`` for the ``REPRO_INDEX_STORE`` default) is part of
    the LRU key: the same reference bound to different stores yields
    distinct sessions, and a fresh session falls back to the store's
    warm tier instead of rebuilding rows the last process already paid
    for.
    """
    global _lru_hits, _lru_misses
    if params is None:
        params = GpuMemParams(**kwargs)
    elif kwargs:
        params = params.with_(**kwargs)
    from repro.index.store import resolve_store

    resolved_store = resolve_store(store)
    codes = as_codes(reference)
    key = (
        reference_fingerprint(codes),
        codes.size,
        params,
        None if resolved_store is None else str(resolved_store.cache_dir),
    )
    with _session_cache_lock:
        session = _session_cache.get(key)
        if session is not None:
            _session_cache.move_to_end(key)
            _lru_hits += 1
            get_tracer(tracer).metrics.counter("session.lru.hits").inc()
            return session
        _lru_misses += 1
    get_tracer(tracer).metrics.counter("session.lru.misses").inc()
    session = MemSession(codes, params, tracer=tracer, store=resolved_store)
    with _session_cache_lock:
        _session_cache[key] = session
        while len(_session_cache) > SESSION_CACHE_SIZE:
            _session_cache.popitem(last=False)
    return session


def clear_session_cache() -> None:
    """Drop every shared session (tests / memory pressure)."""
    with _session_cache_lock:
        _session_cache.clear()


def session_cache_info() -> dict:
    """Introspection for the shared session LRU."""
    with _session_cache_lock:
        return {
            "n_sessions": len(_session_cache),
            "capacity": SESSION_CACHE_SIZE,
            "hits": _lru_hits,
            "misses": _lru_misses,
        }


def time_warm(session: MemSession) -> float:
    """Time :meth:`MemSession.warm` by wall clock (bench helper)."""
    t0 = time.perf_counter()
    session.warm()
    return time.perf_counter() - t0
