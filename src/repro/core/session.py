"""Reusable index sessions: build a reference's seed index once, query forever.

copMEM's lesson (Grabowski & Bieniecki 2018) is that a lightweight sampled
k-mer index *amortized across queries* is the dominant cost lever for MEM
extraction. A :class:`MemSession` binds ``(reference, params)`` once,
lazily builds the reference's sorted-key seed index when the pipeline first
touches it, and then serves unlimited ``find_mems(query)`` calls at
match-only cost. Every many-query consumer — :class:`repro.core.mapping.ReadMapper`,
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
from repro.core.params import GpuMemParams
from repro.core.pipeline import Pipeline, PipelineStats, as_codes
from repro.index.compare import pack_codes
from repro.index.kmer_index import KmerSeedIndex
from repro.obs.tracer import Tracer, get_tracer
from repro.types import MatchSet


class MemSession:
    """MEM extraction bound to one ``(reference, params)`` pair.

    The session owns the reference's sorted-key seed index: built on first
    touch (or up front via :meth:`warm`) and reused by every subsequent
    query, including reverse-complement strands and batch workloads.

    Example::

        session = MemSession(reference, min_length=20)
        session.warm()                      # optional: build the index now
        for read in reads:
            mems = session.find_mems(read)  # match-only cost per read
    """

    def __init__(
        self,
        reference,
        params: GpuMemParams | None = None,
        /,
        *,
        tracer: Tracer | None = None,
        lock_factory=None,
        store=None,
        **kwargs,
    ):
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
        self.pipeline = Pipeline(params, tracer=self.tracer)
        #: Stats of the most recent :meth:`find_mems` run.
        self.stats = PipelineStats(
            backend=params.backend,
            executor=params.executor,
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
        self._index: KmerSeedIndex | None = None
        self._lock = self._lock_factory("session.cache")  # guards: _index, _hits, _misses, _n_queries
        #: Single-flight build lock: concurrent first touches build once.
        self._build_lock = self._lock_factory("session.build")
        self._hits = 0
        self._misses = 0
        self._n_queries = 0

    # -- index cache protocol (consumed by IndexStage) -------------------------
    def get_or_build(self, build) -> tuple[KmerSeedIndex, float, bool]:
        """Single-flight cache fill: ``(index, build_seconds, cache_hit)``.

        ``build`` is a zero-argument callable returning
        ``(KmerSeedIndex, seconds)``. Concurrent callers that miss serialize
        on the build lock so exactly one of them builds; the others block
        briefly and are then served the cached index (counted as hits —
        only the one real build is a miss). This is what makes the session
        safe under query-level concurrency
        (:class:`repro.core.batch.BatchRunner`,
        :class:`repro.core.serve.MemServer`).
        """
        with self._lock:
            index = self._index
            if index is not None:
                self._hits += 1
                return index, 0.0, True
        with self._build_lock:
            # Re-check: a concurrent builder may have filled the cache while
            # we waited on its lock.
            with self._lock:
                index = self._index
                if index is not None:
                    self._hits += 1
                    return index, 0.0, True
            index, seconds = self._build_index(build)
            with self._lock:
                self._misses += 1
                self._index = index
            return index, seconds, False

    def _build_index(self, build) -> tuple[KmerSeedIndex, float]:
        """The cold path of :meth:`get_or_build`: direct build, or the
        persistent store's tier walk when one is attached.

        With a store, a restarted process (or a sibling worker) that
        already persisted this index serves it as an mmap-backed warm load,
        and concurrent cold builders across processes single-flight on the
        store's file lock. Store loads keep the session-counter semantics
        of a build (the index was not in *this* session's memory); the
        ``index.store.*`` metrics carry the tier split.
        """
        if self.store is None:
            return build()
        index, seconds, _source = self.store.get_or_build_reference_index(
            self.reference,
            seed_length=self.params.seed_length,
            step=self.params.step,
            fingerprint=self.fingerprint(),
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

    def seed_index(self) -> KmerSeedIndex:
        """The (cached) sorted-key seed index of the whole reference."""
        index, _, _ = self.pipeline.index.run(self.reference, cache=self)
        return index

    # -- lifecycle -------------------------------------------------------------
    def warm(self) -> float:
        """Build the index now if it is missing; returns the build seconds.

        On a fresh session this is the index-construction time without
        matching; on a warm session it is 0.
        """
        with self.tracer.span("session.warm", cat="session"):
            return self.pipeline.build_index(self.reference, cache=self)

    def drop_indexes(self) -> None:
        """Release the cached index (memory pressure valve).

        Safe to call while queries are in flight: a query that already
        holds the index keeps using it, and the next touch rebuilds it
        (single-flight, as on a fresh session).
        """
        with self._lock:
            self._index = None

    def cache_info(self) -> dict:
        """Cache effectiveness counters and resident footprint.

        Snapshotted under the cache lock, so this is safe to call while
        concurrent queries (e.g. a :class:`~repro.core.batch.BatchRunner`)
        are filling the cache.
        """
        with self._lock:
            index = self._index
            hits, misses = self._hits, self._misses
            n_queries = self._n_queries
        return {
            "n_cached": int(index is not None),
            "hits": hits,
            "misses": misses,
            "n_queries": n_queries,
            "nbytes_packed": 0 if index is None else index.nbytes_packed,
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
        """Surface the cumulative index-cache counters through
        PipelineStats and the metrics registry."""
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
            metrics.gauge("session.cache.resident_bytes").set(
                info["nbytes_packed"]
            )

    def find_mems_batch(self, queries) -> list[MatchSet]:
        """Extract against many queries, reusing the cached index."""
        return [self.find_mems(query) for query in queries]

    def __repr__(self) -> str:
        with self._lock:
            cached = self._index is not None
        return (
            f"MemSession(|R|={self.reference.size}, "
            f"index={'cached' if cached else 'not built'}, "
            f"executor={self.params.executor!r})"
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
