"""Persistent tiered index store: hot LRU → warm mmap file → cold rebuild.

Table III/IV of the paper assume matching against a *prebuilt* index, but a
process restart used to rebuild every index from scratch —
:mod:`repro.index.serialize` existed and nothing in the session/procpool
stack used it. :class:`IndexStore` closes that gap with three tiers:

1. **hot** — an in-process LRU keyed exactly like the
   :func:`repro.core.session.get_session` cache:
   ``(reference fingerprint, index params)``. Hits cost a dict lookup.
2. **warm** — an immutable bundle directory under the cache dir (see the
   bundle layout of :mod:`repro.index.serialize`), loaded via
   ``np.load(..., mmap_mode="r")``: zero-copy, page-cache cost only. A
   warm *restart* therefore pays near-zero index-build time — copMEM's
   cheap-index-reuse lesson applied across processes and runs.
3. **cold** — build through the caller's builder, persist crash-safely
   (temp dir + atomic rename), and serve the fresh index.

Cold builds are **single-flight across processes**: builders serialize on
an advisory file lock per ``(fingerprint, params)`` key, so N spawned
procpool workers racing the same index produce exactly one on-disk artifact
— the waiters wake up, find the published bundle, and take the warm path.
Reads never lock: bundles are immutable once renamed into place.

Keys include the reference *fingerprint* plus every index-shaping
parameter (not the reference alone): Gagie 2024's long-MEM framing — the
same genome indexed under different ``(ℓs, Δs)`` or sparseness is a
different index — is what makes the params part of the identity.

Observability (see docs/observability.md): ``index.store.*`` counters +
``store.*`` spans land in whichever tracer the caller passes per call, and
an always-on internal counter set is exposed via :meth:`IndexStore.stats`.

Enable process-wide by pointing ``REPRO_INDEX_STORE`` at a cache
directory (CI's ``tests-store`` leg does exactly that), or explicitly via
``MemSession(..., store=...)`` / ``gpumem index --store`` /
``gpumem match --index-store``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.analysis import resource_tracker as _res
from repro.errors import IndexError_
from repro.index.kmer_index import KmerSeedIndex, build_kmer_index
from repro.index.matching import SuffixArraySearcher
from repro.index.serialize import (
    FORMAT_VERSION,
    load_kmer_bundle,
    load_searcher_bundle,
    save_kmer_bundle,
    save_searcher_bundle,
)
from repro.obs.tracer import get_tracer

#: Environment variable naming the default store's cache directory.
STORE_ENV_VAR = "REPRO_INDEX_STORE"

#: Hot-tier entries an :class:`IndexStore` keeps resident by default. Seed
#: indexes are small (sampled locations only), so this is generous enough
#: for several warm references without pinning memory.
HOT_CAPACITY = 64

try:  # POSIX advisory locks; fall back to exclusive-create spinning.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Fallback-lock staleness horizon: an exclusive-create lock file older
#: than this is presumed abandoned by a crashed builder and broken.
_LOCK_STALE_SECONDS = 300.0


class _FileLock:
    """Advisory exclusive lock on one path (cross-process single-flight).

    ``fcntl.flock`` where available — locks die with the holding process,
    so a crashed builder never wedges the key. Elsewhere, an
    exclusive-create spin lock with a staleness horizon.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fh = None

    def acquire(self) -> None:
        if fcntl is not None:
            fh = open(self.path, "a+")
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            except BaseException:
                # flock can fail (EINTR under a signal, ENOLCK): the fd
                # must not outlive the failed acquire (RL104's orphan).
                fh.close()
                raise
            self._fh = fh
            _res.lock_acquired(self.path)
            return
        while True:  # pragma: no cover - exercised only off-POSIX
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                _res.lock_acquired(self.path)
                return
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(self.path)
                    if age > _LOCK_STALE_SECONDS:
                        os.unlink(self.path)
                        continue
                except OSError:
                    pass
                time.sleep(0.01)

    def release(self) -> None:
        if fcntl is not None:
            fh, self._fh = self._fh, None
            if fh is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
                fh.close()
                _res.lock_released(self.path)
            return
        try:  # pragma: no cover - exercised only off-POSIX
            os.unlink(self.path)
            _res.lock_released(self.path)
        except OSError:
            pass

    def __enter__(self) -> "_FileLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


def _params_tag(parts: dict) -> str:
    """A short, filesystem-safe digest of the index-shaping params."""
    canon = ";".join(f"{k}={parts[k]}" for k in sorted(parts))
    return hashlib.sha1(canon.encode()).hexdigest()[:12]


def row_key(
    fingerprint: str, *, seed_length: int, step: int,
    region_start: int, region_end: int,
) -> str:
    """Store key of the k-mer index of one reference region."""
    tag = _params_tag(dict(
        seed_length=seed_length, step=step,
        region_start=region_start, region_end=region_end,
    ))
    return f"row-{fingerprint}-{tag}"


def searcher_key(fingerprint: str, *, sparseness: int, prefix_table_k: int) -> str:
    """Store key of a suffix-array searcher."""
    tag = _params_tag(dict(sparseness=sparseness, prefix_table_k=prefix_table_k))
    return f"sa-{fingerprint}-{tag}"


def _index_nbytes(index: KmerSeedIndex) -> int:
    return int(index.keys.nbytes + index.locs.nbytes)


def _searcher_nbytes(searcher: SuffixArraySearcher) -> int:
    total = searcher.reference.nbytes + searcher.sa.nbytes + searcher.lcp.nbytes
    if searcher._pt_lo is not None:
        total += searcher._pt_lo.nbytes + searcher._pt_hi.nbytes
    return int(total)


class IndexStore:
    """The tiered persistent index cache (one cache directory).

    Thread-safe; one instance is normally shared per cache directory via
    :func:`store_at`. All artifacts live under ``<cache_dir>/v<FORMAT>/``,
    so a future format bump starts a fresh namespace instead of tripping
    over old bundles.
    """

    def __init__(self, cache_dir, *, hot_capacity: int = HOT_CAPACITY,
                 tracer=None):
        self.cache_dir = Path(cache_dir)
        self.root = self.cache_dir / f"v{FORMAT_VERSION}"
        self.root.mkdir(parents=True, exist_ok=True)
        self.hot_capacity = int(hot_capacity)
        self.tracer = get_tracer(tracer)
        self._lock = threading.Lock()  # guards: _hot, _counts
        self._hot: OrderedDict[str, object] = OrderedDict()
        self._counts = {
            "hot_hits": 0, "warm_hits": 0, "misses": 0, "builds": 0,
            "bytes_mmapped": 0, "invalid_bundles": 0,
            "lock_wait_seconds": 0.0,
        }

    # -- tier helpers ----------------------------------------------------------
    def _hot_get(self, key: str):
        with self._lock:
            value = self._hot.get(key)
            if value is not None:
                self._hot.move_to_end(key)
            return value

    def _hot_put(self, key: str, value) -> None:
        evicted: list[str] = []
        with self._lock:
            self._hot[key] = value
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_capacity:
                evicted.append(self._hot.popitem(last=False)[0])
        for ekey in evicted:
            self._drop_mmap(ekey)

    def _drop_mmap(self, key: str) -> None:
        """Retire a hot entry's mmap adoption (eviction / clear / purge).

        Build-path entries were never mmap-opened; the tracker ignores a
        close for an unknown path, so this is safe to call for any key.
        """
        path = str(self.root / key)
        _res.disown("mmap", path)
        _res.mmap_closed(path)

    def _count(self, name: str, n=1) -> None:
        with self._lock:
            self._counts[name] += n

    @contextmanager
    def _locked(self, key: str, tracer):
        """Hold the key's cross-process lock, recording the wait.

        A context manager (not a bare :class:`_FileLock`) so the lock is
        acquired exactly once — ``flock`` on a second file descriptor of
        the same path would self-deadlock the process.
        """
        lock = _FileLock(self.root / f"{key}.lock")
        metrics = tracer.metrics
        with tracer.span("store.lock", cat="store", key=key):
            t0 = time.perf_counter()
            lock.acquire()
            waited = time.perf_counter() - t0
        self._count("lock_wait_seconds", waited)
        if metrics.enabled:
            metrics.histogram("index.store.lock_wait_seconds").observe(waited)
        try:
            yield lock
        finally:
            lock.release()

    def _try_load(self, key: str, loader, tracer):
        """Warm-tier read: the loaded value, or ``None`` on absent/invalid.

        An unreadable bundle (external truncation — atomic publication
        means we never create one) is treated as a miss; the cold path
        counts it in ``invalid_bundles`` and clears it under the key's file
        lock before persisting a rebuild, so each rebuild counts it once.
        """
        path = self.root / key
        try:
            with tracer.span("store.load", cat="store", key=key):
                return loader(path)
        except (FileNotFoundError, IndexError_):
            return None

    def _get_or_build(self, key: str, *, loader, builder, persister,
                      nbytes_of, tracer=None):
        """The tier walk shared by every artifact kind.

        Returns ``(value, seconds, source)`` with ``source`` one of
        ``"hot"`` / ``"warm"`` / ``"build"``; ``seconds`` is the measured
        load or build time (0 for hot hits).
        """
        tracer = get_tracer(tracer) if tracer is not None else self.tracer
        metrics = tracer.metrics
        with tracer.span("store.get", cat="store", key=key) as span:
            value = self._hot_get(key)
            if value is not None:
                self._count("hot_hits")
                if metrics.enabled:
                    metrics.counter("index.store.hits", tier="hot").inc()
                span.set(tier="hot")
                return value, 0.0, "hot"

            t0 = time.perf_counter()
            value = self._try_load(key, loader, tracer)
            if value is not None:
                seconds = time.perf_counter() - t0
                self._record_warm(key, value, nbytes_of, metrics, span)
                return value, seconds, "warm"

            # Cold: single-flight across processes on the key's file lock.
            with self._locked(key, tracer):
                t0 = time.perf_counter()
                value = self._try_load(key, loader, tracer)
                if value is not None:
                    # Another process built it while we waited for the lock.
                    seconds = time.perf_counter() - t0
                    self._record_warm(key, value, nbytes_of, metrics, span)
                    return value, seconds, "warm"
                path = self.root / key
                if path.exists():
                    # Invalid bundle found by _try_load: clear it (we hold
                    # the build lock) so the rebuild publishes cleanly.
                    self._count("invalid_bundles")
                    if metrics.enabled:
                        metrics.counter("index.store.invalid_bundles").inc()
                    shutil.rmtree(path, ignore_errors=True)
                with tracer.span("store.build", cat="store", key=key):
                    value, seconds = builder()
                with tracer.span("store.persist", cat="store", key=key):
                    persister(value, path)
                self._count("misses")
                self._count("builds")
                if metrics.enabled:
                    metrics.counter("index.store.misses").inc()
                    metrics.counter("index.store.builds").inc()
                span.set(tier="build")
                self._hot_put(key, value)
                return value, seconds, "build"

    def _record_warm(self, key, value, nbytes_of, metrics, span) -> None:
        nbytes = nbytes_of(value)
        # The hot tier deliberately keeps the mmap-backed arrays alive
        # across calls: record the open and adopt it so the end-of-run
        # leak audit distinguishes this cache from a forgotten handle.
        path = str(self.root / key)
        _res.mmap_opened(path)
        _res.adopt("mmap", path, "IndexStore.hot")
        self._count("warm_hits")
        self._count("bytes_mmapped", nbytes)
        if metrics.enabled:
            metrics.counter("index.store.hits", tier="warm").inc()
            metrics.counter("index.store.bytes_mmapped").inc(nbytes)
        span.set(tier="warm", bytes_mmapped=nbytes)
        self._hot_put(key, value)

    # -- k-mer indexes ---------------------------------------------------------
    def get_or_build_row(
        self, fingerprint: str, *, seed_length: int, step: int,
        region_start: int, region_end: int, build, tracer=None,
    ) -> tuple[KmerSeedIndex, float, str]:
        """The k-mer index of one reference region through the tiers.

        ``build`` is a zero-argument callable returning
        ``(KmerSeedIndex, seconds)``.
        """
        key = row_key(
            fingerprint, seed_length=seed_length, step=step,
            region_start=region_start, region_end=region_end,
        )
        return self._get_or_build(
            key,
            loader=lambda path: load_kmer_bundle(path, mmap=True),
            builder=build,
            persister=lambda index, path: save_kmer_bundle(index, path),
            nbytes_of=_index_nbytes,
            tracer=tracer,
        )

    def get_or_build_reference_index(
        self, reference: np.ndarray, *, seed_length: int, step: int,
        fingerprint: str | None = None, build=None, tracer=None,
    ) -> tuple[KmerSeedIndex, float, str]:
        """The whole-reference sorted-key index: one bundle per
        ``(reference, ℓs, Δs)``.

        This is the :class:`~repro.core.session.MemSession` cold path.
        ``fingerprint`` skips re-hashing a reference the caller already
        hashed; ``build`` (a zero-argument callable returning
        ``(KmerSeedIndex, seconds)``) defaults to :func:`build_kmer_index`.
        """
        codes = np.ascontiguousarray(reference, dtype=np.uint8)
        if fingerprint is None:
            from repro.core.session import reference_fingerprint

            fingerprint = reference_fingerprint(codes)
        if build is None:
            def build():
                t0 = time.perf_counter()
                index = build_kmer_index(codes, seed_length=seed_length, step=step)
                return index, time.perf_counter() - t0

        return self.get_or_build_row(
            fingerprint, seed_length=seed_length, step=step,
            region_start=0, region_end=int(codes.size),
            build=build, tracer=tracer,
        )

    # -- suffix-array searchers ------------------------------------------------
    def get_or_build_searcher(
        self, reference: np.ndarray, *, sparseness: int = 1,
        prefix_table_k: int = 0, build=None, tracer=None,
    ) -> tuple[SuffixArraySearcher, float, str]:
        """A :class:`SuffixArraySearcher` through the tiers.

        The warm path loads SA, LCP, *and* the prefix table mmap-backed —
        no suffix re-sorting, no table rebuild.
        """
        from repro.core.session import reference_fingerprint

        codes = np.ascontiguousarray(reference, dtype=np.uint8)
        key = searcher_key(
            reference_fingerprint(codes),
            sparseness=sparseness, prefix_table_k=prefix_table_k,
        )
        if build is None:
            def build():
                t0 = time.perf_counter()
                searcher = SuffixArraySearcher(
                    codes, sparseness=sparseness,
                    prefix_table_k=prefix_table_k,
                )
                return searcher, time.perf_counter() - t0

        return self._get_or_build(
            key,
            loader=lambda path: load_searcher_bundle(path, mmap=True),
            builder=build,
            persister=lambda s, path: save_searcher_bundle(s, path),
            nbytes_of=_searcher_nbytes,
            tracer=tracer,
        )

    # -- introspection / lifecycle ---------------------------------------------
    def stats(self) -> dict:
        """Lifetime tier counters plus hot-tier occupancy."""
        with self._lock:
            out = dict(self._counts)
            out["n_hot"] = len(self._hot)
        out["cache_dir"] = str(self.cache_dir)
        out["n_bundles"] = sum(
            1 for p in self.root.iterdir()
            if p.is_dir() and not p.name.startswith(".")
        ) if self.root.is_dir() else 0
        return out

    def clear_hot(self) -> None:
        """Drop the in-process tier (memory pressure; disk is untouched)."""
        with self._lock:
            keys = list(self._hot)
            self._hot.clear()
        for key in keys:
            self._drop_mmap(key)

    def purge(self) -> None:
        """Delete every on-disk artifact of this store's format namespace."""
        self.clear_hot()
        if self.root.is_dir():
            for entry in list(self.root.iterdir()):
                if entry.is_dir():
                    shutil.rmtree(entry, ignore_errors=True)
                else:
                    entry.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            n_hot = len(self._hot)
        return f"IndexStore({str(self.cache_dir)!r}, hot={n_hot}/{self.hot_capacity})"


# -- shared store registry -----------------------------------------------------

_registry_lock = threading.Lock()  # guards: _stores
#: resolved cache dir -> shared IndexStore (one hot tier per dir per process).
_stores: dict[str, IndexStore] = {}


def store_at(cache_dir, *, tracer=None) -> IndexStore:
    """The process-shared :class:`IndexStore` for ``cache_dir``.

    One instance per resolved directory, so every session in the process
    shares one hot tier (and one counter set) per cache dir.
    """
    key = str(Path(cache_dir).expanduser().resolve())
    with _registry_lock:
        store = _stores.get(key)
        if store is None:
            store = IndexStore(key, tracer=tracer)
            _stores[key] = store
        return store


def default_store() -> IndexStore | None:
    """The env-configured store (``REPRO_INDEX_STORE``), or ``None``.

    Read per call so tests/CLI can flip the environment variable; the
    underlying instance is still shared per directory via :func:`store_at`.
    """
    cache_dir = os.environ.get(STORE_ENV_VAR)
    if not cache_dir:
        return None
    return store_at(cache_dir)


def resolve_store(store) -> IndexStore | None:
    """Normalize a ``store=`` argument: instance, path, or ``None`` (env)."""
    if store is None:
        return default_store()
    if isinstance(store, IndexStore):
        return store
    return store_at(store)


def clear_store_registry() -> None:
    """Forget every shared store instance (tests)."""
    with _registry_lock:
        _stores.clear()
