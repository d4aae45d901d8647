"""The staged GPUMEM extraction pipeline (paper Figure 1, made explicit).

This module is the single implementation of the vectorized dataflow,
decomposed into three stage objects composed by a :class:`Pipeline`:

- :class:`PrepStage` — query-side preparation (k-mer codes; the run also
  packs the query once for every comparison of the run);
- :class:`IndexStage` — the reference's sorted-key seed index, one per
  ``(reference, params)``, optionally served from a cache (see
  :class:`repro.core.session.MemSession`);
- :class:`TileMatchStage` — the sorted seed join, candidate chunks and
  the extension of each MEM's leftmost sampled seed hit for one band of
  query seeds. Every MEM comes out of exactly one band and one chunk, so
  there is no host merge (§III-C2 is simulated-only,
  :mod:`repro.core.simulated`).

``params.executor`` picks how the query runs: ``"serial"`` matches all of
its seeds as one band in-process; ``"process"`` splits the query seed
positions into at most ``workers`` contiguous bands and matches them on
the worker pool of :mod:`repro.core.procpool`, each worker against its own
session's index. Tile rows exist only where the GPU is modelled (the
simulated backend, :mod:`repro.core.perf_model`, and :meth:`Pipeline.plan_for`,
which reports the grid the GPU would use). All per-run bookkeeping lives in
the typed :class:`PipelineStats`, which also behaves as a read/write
mapping so the historical ``stats["key"]`` consumers keep working
unchanged.

Observability: pass ``tracer=`` (a :class:`repro.obs.Tracer`) to record
``stage:prep`` / ``stage:index`` / ``stage:tile_match`` spans plus
per-stage counters into ``tracer.metrics`` (see
``docs/observability.md``). Without a tracer the instrumentation degrades
to shared no-op objects.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

# No caller here: the traced benchmark run (perfbench/spans.py) patches it by name.
from repro.core.host_merge import host_merge  # noqa: F401
from repro.core.params import GpuMemParams
from repro.core.tiling import TilePlan
from repro.core.vectorized import TileStageResult, stage_tile
from repro.index.compare import PackedCodes, pack_codes
from repro.index.kmer_index import KmerSeedIndex, build_kmer_index
from repro.obs.tracer import Tracer, get_tracer
from repro.sequence.alphabet import encode
from repro.sequence.packed import PackedSequence, kmer_codes
from repro.types import concat_triplets


def as_codes(seq) -> np.ndarray:
    """Coerce a string / PackedSequence / array into uint8 code form."""
    if isinstance(seq, PackedSequence):
        return seq.codes()
    return encode(seq)


def _cache_token(index_cache) -> int | None:
    """A stable per-parent-session token for process-tier worker caches.

    Worker-side sessions are keyed by it (see
    :class:`repro.core.procpool.TaskSpec`), so each parent session gets
    its own worker caches and a fresh session's first query reports real
    misses rather than inheriting another session's warmth.
    """
    if index_cache is None:
        return None
    token = getattr(index_cache, "_proc_token", None)
    if token is None:
        from repro.core import procpool

        token = procpool.next_session_token()
        try:
            index_cache._proc_token = token
        except AttributeError:  # slotted custom cache: fall back to identity
            token = id(index_cache)
    return token


@dataclass
class PipelineStats:
    """Typed per-run statistics of one pipeline execution.

    Replaces the ad-hoc stats dicts the matcher, index timer, and
    multi-device path each used to assemble. Field names intentionally
    match the historical dict keys, and the class implements the mapping
    protocol (``stats["index_time"]``, ``dict(stats)``, ``stats.update``)
    so existing consumers — CLI, benchmarks, tests — read it unchanged.
    Keys with no typed field (``sim_*`` of the simulated backend, the
    process count of the process executor, variant tags, …) live in
    :attr:`extra`.
    """

    backend: str = "vectorized"
    executor: str = "serial"
    #: The tile grid the modelled GPU would use (:meth:`Pipeline.plan_for`);
    #: the vectorized path itself does not tile.
    n_rows: int = 0
    n_cols: int = 0
    n_tiles: int = 0
    n_candidates: int = 0
    prep_time: float = 0.0
    index_time: float = 0.0
    match_time: float = 0.0
    #: Always 0.0: the vectorized path has no host merge.
    host_merge_time: float = 0.0
    total_time: float = 0.0
    max_index_bytes: int = 0
    max_index_locs: int = 0
    #: Index-cache hits/misses of this run: one lookup per band.
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    #: Cumulative index-cache effectiveness of the serving
    #: :class:`~repro.core.session.MemSession` (across its whole lifetime,
    #: unlike the per-run ``index_cache_*`` pair above).
    session_cache_hits: int = 0
    session_cache_misses: int = 0
    params: str = ""
    extra: dict = field(default_factory=dict)

    # -- mapping protocol ----------------------------------------------------
    def __getitem__(self, key: str):
        if key in self._field_names():
            return getattr(self, key)
        return self.extra[key]

    def __setitem__(self, key: str, value) -> None:
        if key in self._field_names():
            setattr(self, key, value)
        else:
            self.extra[key] = value

    def __contains__(self, key) -> bool:
        return key in self._field_names() or key in self.extra

    def __iter__(self) -> Iterator[str]:
        yield from self._field_names()
        yield from self.extra

    def __len__(self) -> int:
        return len(self._field_names()) + len(self.extra)

    def keys(self):
        """All stat names: typed fields first, then extras."""
        return list(self)

    def items(self):
        """``(name, value)`` pairs over fields and extras."""
        return [(key, self[key]) for key in self]

    def get(self, key, default=None):
        """Mapping-style lookup with a default."""
        try:
            return self[key]
        except KeyError:
            return default

    def update(self, other=(), **kwargs) -> None:
        """Merge a mapping/pairs into the stats (dict.update semantics)."""
        items = other.items() if hasattr(other, "items") else other
        for key, value in items:
            self[key] = value
        for key, value in kwargs.items():
            self[key] = value

    def to_dict(self) -> dict:
        """Flatten into a plain dict (typed fields + extras)."""
        return {key: self[key] for key in self}

    @classmethod
    def from_dict(cls, mapping: dict) -> "PipelineStats":
        """Lift a legacy stats dict; unknown keys land in :attr:`extra`."""
        out = cls()
        out.update(mapping)
        return out

    @classmethod
    def _field_names(cls) -> tuple[str, ...]:
        names = getattr(cls, "_field_names_cache", None)
        if names is None:
            names = tuple(f.name for f in fields(cls) if f.name != "extra")
            cls._field_names_cache = names
        return names


@dataclass
class BandResult:
    """Everything one band of query seeds produced, plus its measured cost."""

    q_lo: int
    mems: np.ndarray
    n_candidates: int = 0
    index_seconds: float = 0.0
    match_seconds: float = 0.0
    index_bytes: int = 0
    index_locs: int = 0
    cache_hit: bool = False


class PrepStage:
    """Query-side preparation: rolling k-mer codes of the whole query."""

    def __init__(self, seed_length: int):
        self.seed_length = int(seed_length)

    def run(self, query: np.ndarray) -> np.ndarray:
        if query.size < self.seed_length:
            return np.empty(0, dtype=np.int64)
        return kmer_codes(query, self.seed_length)


class IndexStage:
    """Build (or fetch through a cache) the reference's seed index.

    The cache is any object with ``get_or_build(build) -> (index, seconds,
    cache_hit)`` — in practice a :class:`MemSession`. The index depends
    only on the reference and the params, never on the query, which is
    what makes it reusable across a many-query workload.
    """

    def __init__(self, params: GpuMemParams):
        self.params = params

    def run(
        self, reference: np.ndarray, cache=None
    ) -> tuple[KmerSeedIndex, float, bool]:
        def build() -> tuple[KmerSeedIndex, float]:
            t0 = time.perf_counter()
            index = build_kmer_index(
                reference,
                seed_length=self.params.seed_length,
                step=self.params.step,
            )
            return index, time.perf_counter() - t0

        if cache is None:
            index, seconds = build()
            return index, seconds, False
        return cache.get_or_build(build)


class TileMatchStage:
    """Sorted seed join → candidate chunks → leftmost-hit extension for one
    band of query seeds.

    With a real tracer attached, the stage also feeds the Algorithm-2
    load-balance counters: every query seed position is one thread slot,
    zero-hit slots are the idle threads ``T_idle``, and — when
    ``params.load_balancing`` is on — idle slots of a band that has at
    least one active seed count as redistributed (the host-side view of
    the paper's proactive balancing).
    """

    def __init__(self, params: GpuMemParams, *, tracer: Tracer | None = None):
        self.params = params
        self.tracer = get_tracer(tracer)

    def run(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        band_kmers: np.ndarray,
        index: KmerSeedIndex,
        q_lo: int = 0,
    ) -> TileStageResult:
        result = stage_tile(
            reference, query, band_kmers, index, self.params.min_length, q_lo
        )
        metrics = self.tracer.metrics
        if metrics.enabled:
            slots = result.n_query_seeds
            active = result.n_query_seeds_with_hits
            metrics.counter("load_balance.seed_slots").inc(slots)
            metrics.counter("load_balance.active_seeds").inc(active)
            metrics.counter("load_balance.idle_threads").inc(slots - active)
            metrics.counter("load_balance.redistributed_threads").inc(
                slots - active if self.params.load_balancing and active else 0
            )
        return result


class Pipeline:
    """Stage composition = one extraction engine.

    ``run`` is the single implementation of the vectorized dataflow; the
    matcher, the session and the process workers all call into it with
    different caches rather than re-growing their own loops.
    """

    def __init__(
        self,
        params: GpuMemParams,
        *,
        prep: PrepStage | None = None,
        index: IndexStage | None = None,
        tile_match: TileMatchStage | None = None,
        tracer: Tracer | None = None,
    ):
        self.params = params
        self.tracer = get_tracer(tracer)
        self.prep = prep or PrepStage(params.seed_length)
        self.index = index or IndexStage(params)
        # The match stage carries the pipeline's tracer so its load-balance
        # counters land in the same run.
        self.tile_match = tile_match or TileMatchStage(params, tracer=self.tracer)
        self.tile_match.tracer = self.tracer

    @property
    def workers(self) -> int:
        """Process count of the ``"process"`` executor (default: the CPU
        count, capped at 8)."""
        return self.params.workers or min(8, os.cpu_count() or 1)

    def plan_for(self, n_reference: int, n_query: int) -> TilePlan:
        """The tile grid the modelled GPU would use for one problem
        (reported in :class:`PipelineStats`; the vectorized path does not
        tile)."""
        return TilePlan(
            n_reference=n_reference,
            n_query=n_query,
            tile_size=self.params.tile_size,
        )

    def process_band(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        band_kmers: np.ndarray,
        q_lo: int = 0,
        cache=None,
        *,
        packed_reference: PackedCodes,
        packed_query: PackedCodes,
    ) -> BandResult:
        """One independent work unit: fetch the index, match one band.

        The match stage compares the packings (the caller packs each
        sequence once per run).
        """
        tracer = self.tracer
        with tracer.span("stage:index", cat="pipeline") as sp:
            index, index_seconds, cache_hit = self.index.run(
                reference, cache=cache
            )
            sp.set(cache_hit=cache_hit, index_locs=index.n_locs)
        t0 = time.perf_counter()
        with tracer.span("stage:tile_match", cat="pipeline", q_lo=q_lo) as sp:
            result = self.tile_match.run(
                packed_reference, packed_query, band_kmers, index, q_lo
            )
            sp.set(
                n_candidates=result.n_candidates,
                n_chunks=result.n_chunks,
                max_chunk=result.max_chunk,
                n_mems=int(result.mems.size),
            )
        return BandResult(
            q_lo=q_lo,
            mems=result.mems,
            n_candidates=result.n_candidates,
            index_seconds=index_seconds,
            match_seconds=time.perf_counter() - t0,
            index_bytes=index.nbytes_packed,
            index_locs=index.n_locs,
            cache_hit=cache_hit,
        )

    def run(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        *,
        index_cache=None,
        query_kmers: np.ndarray | None = None,
    ) -> tuple[np.ndarray, PipelineStats]:
        """Extract all MEMs; returns ``(triplets, stats)``.

        ``index_cache`` (a :class:`MemSession`-like object) short-circuits
        the index stage and, through its ``packed_reference`` attribute,
        the reference packing; ``query_kmers`` short-circuits the k-mer
        step of prep when the caller already holds the rolling codes.
        """
        run_t0 = time.perf_counter()
        tracer = self.tracer
        plan = self.plan_for(reference.size, query.size)
        with tracer.span(
            "pipeline.run", cat="pipeline",
            backend=self.params.backend, executor=self.params.executor,
            n_reference=int(reference.size), n_query=int(query.size),
        ) as run_span:
            if self.params.executor == "process":
                prep_time = 0.0
                results = self._run_specs(reference, query, index_cache)
            else:
                t0 = time.perf_counter()
                with tracer.span("stage:prep", cat="pipeline") as sp:
                    if query_kmers is None:
                        query_kmers = self.prep.run(query)
                    packed_query = pack_codes(query)
                    packed_reference = getattr(index_cache, "packed_reference", None)
                    if packed_reference is None:
                        packed_reference = pack_codes(reference)
                    sp.set(n_kmers=int(query_kmers.size))
                prep_time = time.perf_counter() - t0
                results = [self.process_band(
                    reference, query, query_kmers, 0, cache=index_cache,
                    packed_reference=packed_reference,
                    packed_query=packed_query,
                )]
            mems = concat_triplets([r.mems for r in results])
            run_span.set(n_mems=int(mems.size))

        stats = PipelineStats(
            backend=self.params.backend,
            executor=self.params.executor,
            n_rows=plan.n_rows,
            n_cols=plan.n_cols,
            n_tiles=plan.n_tiles,
            n_candidates=sum(r.n_candidates for r in results),
            prep_time=prep_time,
            index_time=sum(r.index_seconds for r in results),
            match_time=sum(r.match_seconds for r in results),
            total_time=time.perf_counter() - run_t0,
            max_index_bytes=max((r.index_bytes for r in results), default=0),
            max_index_locs=max((r.index_locs for r in results), default=0),
            index_cache_hits=sum(1 for r in results if r.cache_hit),
            index_cache_misses=sum(1 for r in results if not r.cache_hit),
            params=self.params.describe(),
        )
        if self.params.executor == "process":
            stats["workers"] = self.workers
        self._record_metrics(stats, n_mems=int(mems.size))
        return mems, stats

    def _run_specs(
        self, reference: np.ndarray, query: np.ndarray, index_cache
    ) -> list[BandResult]:
        """Match the query's seed bands on the worker processes.

        The seed positions split into at most ``workers`` contiguous bands.
        A closure cannot cross a process boundary, so the work travels as a
        picklable :class:`repro.core.procpool.TaskSpec`. When the
        caller's cache already holds the index, the spec says so: workers
        then warm their own sessions up front and report the same
        all-hit / zero-index-time stats a warm serial session does.
        """
        from repro.core import procpool

        assume_warm = False
        if index_cache is not None:
            cache_info = getattr(index_cache, "cache_info", None)
            if cache_info is not None:
                assume_warm = cache_info()["n_cached"] > 0
        spec = procpool.make_spec(
            reference,
            self.params,
            query=query,
            use_cache=index_cache is not None,
            assume_warm=assume_warm,
            token=_cache_token(index_cache),
            tracer=self.tracer,
            store=getattr(index_cache, "store", None),
        )
        n_seeds = max(0, int(query.size) - self.params.seed_length + 1)
        bands = procpool._bands(range(n_seeds), self.workers) or [range(0)]
        return procpool.map_bands(
            spec, [(b.start, b.stop) for b in bands], self.workers,
            tracer=self.tracer,
        )

    def _record_metrics(self, stats: PipelineStats, *, n_mems: int) -> None:
        """Fold one run's stats into the tracer's metrics registry."""
        metrics = self.tracer.metrics
        if not metrics.enabled:
            return
        backend = self.params.backend
        metrics.counter("pipeline.runs", backend=backend).inc()
        metrics.counter("pipeline.mems", backend=backend).inc(n_mems)
        metrics.counter("stage.candidates", stage="tile_match").inc(
            stats.n_candidates
        )
        metrics.counter("stage.mems", stage="tile_match").inc(n_mems)
        metrics.counter("index.cache.hits").inc(stats.index_cache_hits)
        metrics.counter("index.cache.misses").inc(stats.index_cache_misses)
        for stage, seconds in (
            ("prep", stats.prep_time),
            ("index", stats.index_time),
            ("tile_match", stats.match_time),
        ):
            metrics.histogram("stage.seconds", stage=stage).observe(seconds)
        metrics.histogram("pipeline.total_seconds").observe(stats.total_time)

    def build_index(self, reference: np.ndarray, cache=None) -> float:
        """Run only the index stage; returns build seconds (0 on a hit).

        This is the index-construction time without matching and the
        session's warm-up path.
        """
        with self.tracer.span("pipeline.build_index", cat="pipeline") as sp:
            index, seconds, cache_hit = self.index.run(reference, cache=cache)
            sp.set(cache_hit=cache_hit, index_locs=index.n_locs)
        return float(seconds)
