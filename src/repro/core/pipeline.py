"""The staged GPUMEM extraction pipeline (paper Figure 1, made explicit).

The dataflow — per-row seed index → per-tile match → host merge — used to
be re-implemented as near-identical inline loops in the matcher, the
index-only timer, and the multi-device path. This module is the single
implementation, decomposed into four stage objects composed by a
:class:`Pipeline`:

- :class:`PrepStage` — query-side preparation (k-mer codes; the run also
  packs the query once for every comparison of the run);
- :class:`RowIndexStage` — the per-row partial seed index, optionally
  served from a cache (see :class:`repro.core.session.MemSession`);
- :class:`TileMatchStage` — candidate generation + maximal extension +
  in/out-tile split for every tile of a row;
- :class:`HostMergeStage` — the global out-tile merge (§III-C2).

Rows are independent work units; *how* they run is delegated to a
:class:`repro.core.executors.RowExecutor` (serial, thread pool, or banded
multi-device model). All per-run bookkeeping lives in the typed
:class:`PipelineStats`, which also behaves as a read/write mapping so the
historical ``stats["key"]`` consumers keep working unchanged.

Observability: pass ``tracer=`` (a :class:`repro.obs.Tracer`) to record
``stage:prep`` / ``stage:row_index`` / ``stage:tile_match`` /
``stage:host_merge`` spans plus per-stage counters into
``tracer.metrics`` (see ``docs/observability.md``). Without a tracer the
instrumentation degrades to shared no-op objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from repro.core.executors import RowExecutor, SerialExecutor
from repro.core.host_merge import host_merge
from repro.core.params import GpuMemParams
from repro.core.tiling import TilePlan
from repro.core.vectorized import stage_tile
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
    :class:`repro.core.procpool.RowTaskSpec`), so each parent session gets
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
    Keys with no typed field (``sim_*`` of the simulated backend, band
    details of the banded executor, variant tags, …) live in :attr:`extra`.
    """

    backend: str = "vectorized"
    executor: str = "serial"
    n_rows: int = 0
    n_cols: int = 0
    n_tiles: int = 0
    n_candidates: int = 0
    n_in_tile: int = 0
    n_out_tile_fragments: int = 0
    n_crossing_mems: int = 0
    prep_time: float = 0.0
    index_time: float = 0.0
    match_time: float = 0.0
    host_merge_time: float = 0.0
    total_time: float = 0.0
    max_index_bytes: int = 0
    max_index_locs: int = 0
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    #: Cumulative row-index cache effectiveness of the serving
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
class RowResult:
    """Everything one tile row produced, plus its measured cost."""

    row: int
    in_tile: np.ndarray
    out_tile: np.ndarray
    n_candidates: int = 0
    index_seconds: float = 0.0
    match_seconds: float = 0.0
    index_bytes: int = 0
    index_locs: int = 0
    cache_hit: bool = False

    @property
    def n_in_tile(self) -> int:
        return int(self.in_tile.size)

    @property
    def n_out_tile(self) -> int:
        return int(self.out_tile.size)


class PrepStage:
    """Query-side preparation: rolling k-mer codes of the whole query."""

    def __init__(self, seed_length: int):
        self.seed_length = int(seed_length)

    def run(self, query: np.ndarray) -> np.ndarray:
        if query.size < self.seed_length:
            return np.empty(0, dtype=np.int64)
        return kmer_codes(query, self.seed_length)


class RowIndexStage:
    """Build (or fetch from a cache) one tile row's partial seed index.

    The cache is any object with ``get(row) -> KmerSeedIndex | None`` and
    ``put(row, index)`` — in practice a :class:`MemSession`. Row indexes
    depend only on the reference and the params, never on the query, which
    is exactly what makes them reusable across a many-query workload.
    """

    def __init__(self, params: GpuMemParams):
        self.params = params

    def run(
        self,
        reference: np.ndarray,
        plan: TilePlan,
        row: int,
        cache=None,
    ) -> tuple[KmerSeedIndex, float, bool]:
        def build() -> tuple[KmerSeedIndex, float]:
            r0, r1 = plan.row_range(row)
            t0 = time.perf_counter()
            index = build_kmer_index(
                reference,
                seed_length=self.params.seed_length,
                step=self.params.step,
                region_start=r0,
                region_end=r1,
            )
            return index, time.perf_counter() - t0

        if cache is None:
            index, seconds = build()
            return index, seconds, False
        # Prefer the single-flight protocol (MemSession.get_or_build): under
        # the threads executor / BatchRunner, concurrent misses on one row
        # must produce exactly one build. Plain get/put caches remain
        # supported for simple (serial) callers.
        get_or_build = getattr(cache, "get_or_build", None)
        if get_or_build is not None:
            return get_or_build(row, build)
        cached = cache.get(row)
        if cached is not None:
            return cached, 0.0, True
        index, seconds = build()
        cache.put(row, index)
        return index, seconds, False


class TileMatchStage:
    """Candidates → extension → in/out split for every tile of one row.

    With a real tracer attached, the stage also feeds the Algorithm-2
    load-balance counters: every query seed position is one thread slot,
    zero-hit slots are the idle threads ``T_idle``, and — when
    ``params.load_balancing`` is on — idle slots of a tile that has at
    least one active seed count as redistributed (the host-side view of
    the paper's proactive balancing, aggregated per tile).
    """

    def __init__(self, params: GpuMemParams, *, tracer: Tracer | None = None):
        self.params = params
        self.tracer = get_tracer(tracer)

    def run(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        query_kmers: np.ndarray,
        plan: TilePlan,
        row: int,
        index: KmerSeedIndex,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        in_parts: list[np.ndarray] = []
        out_parts: list[np.ndarray] = []
        n_candidates = 0
        metrics = self.tracer.metrics
        slots = active = idle = redistributed = 0
        for tile in plan.tiles_in_row(row):
            result = stage_tile(
                reference, query, query_kmers, tile, index, self.params.min_length
            )
            n_candidates += result.n_candidates
            if result.in_tile.size:
                in_parts.append(result.in_tile)
            if result.out_tile.size:
                out_parts.append(result.out_tile)
            if metrics.enabled:
                n_slots = int(result.hit_counts.size)
                n_active = int(result.n_query_seeds_with_hits)
                slots += n_slots
                active += n_active
                idle += n_slots - n_active
                if self.params.load_balancing and n_active:
                    redistributed += n_slots - n_active
        if metrics.enabled:
            metrics.counter("load_balance.seed_slots").inc(slots)
            metrics.counter("load_balance.active_seeds").inc(active)
            metrics.counter("load_balance.idle_threads").inc(idle)
            metrics.counter("load_balance.redistributed_threads").inc(redistributed)
        return concat_triplets(in_parts), concat_triplets(out_parts), n_candidates


class HostMergeStage:
    """Global merge of boundary-touching fragments (§III-C2)."""

    def __init__(self, params: GpuMemParams):
        self.params = params

    def run(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        row_results: list[RowResult],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        t0 = time.perf_counter()
        out_tile = concat_triplets([r.out_tile for r in row_results])
        crossing = host_merge(reference, query, out_tile, self.params.min_length)
        mems = concat_triplets([r.in_tile for r in row_results] + [crossing])
        seconds = time.perf_counter() - t0
        return mems, crossing, out_tile, seconds


class Pipeline:
    """Stage composition + row executor = one extraction engine.

    ``run`` is the single implementation of the Figure-1 dataflow; the
    matcher, the session, and the multi-device wrapper all call into it
    with different executors / caches rather than re-growing their own
    loops.
    """

    def __init__(
        self,
        params: GpuMemParams,
        *,
        executor: RowExecutor | None = None,
        prep: PrepStage | None = None,
        row_index: RowIndexStage | None = None,
        tile_match: TileMatchStage | None = None,
        merge: HostMergeStage | None = None,
        tracer: Tracer | None = None,
    ):
        self.params = params
        self.tracer = get_tracer(tracer)
        self.executor = executor if executor is not None else SerialExecutor()
        # The executor and the tile stage carry the pipeline's tracer so
        # band timings and load-balance counters land in the same run.
        self.executor.tracer = self.tracer
        self.prep = prep or PrepStage(params.seed_length)
        self.row_index = row_index or RowIndexStage(params)
        self.tile_match = tile_match or TileMatchStage(params, tracer=self.tracer)
        self.tile_match.tracer = self.tracer
        self.merge = merge or HostMergeStage(params)

    def plan_for(self, n_reference: int, n_query: int) -> TilePlan:
        """The tile grid for one problem at this pipeline's tile size."""
        return TilePlan(
            n_reference=n_reference,
            n_query=n_query,
            tile_size=self.params.tile_size,
        )

    def process_row(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        query_kmers: np.ndarray,
        plan: TilePlan,
        row: int,
        cache=None,
        *,
        packed_reference: PackedCodes,
        packed_query: PackedCodes,
    ) -> RowResult:
        """One independent work unit: index + match all tiles of ``row``.

        The tile stage compares the packings (the caller packs each sequence
        once for all its rows).
        """
        tracer = self.tracer
        with tracer.span("stage:row_index", cat="pipeline", row=row) as sp:
            index, index_seconds, cache_hit = self.row_index.run(
                reference, plan, row, cache=cache
            )
            sp.set(cache_hit=cache_hit, index_locs=index.n_locs)
        t0 = time.perf_counter()
        with tracer.span("stage:tile_match", cat="pipeline", row=row) as sp:
            in_tile, out_tile, n_candidates = self.tile_match.run(
                packed_reference, packed_query, query_kmers, plan, row, index,
            )
            sp.set(n_candidates=n_candidates, n_in_tile=int(in_tile.size))
        return RowResult(
            row=row,
            in_tile=in_tile,
            out_tile=out_tile,
            n_candidates=n_candidates,
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
        the row-index stage and, through its ``packed_reference``
        attribute, the reference packing; ``query_kmers`` short-circuits
        the k-mer step of prep when the caller already holds the rolling
        codes. The query is packed once here for every tile and the merge.
        """
        run_t0 = time.perf_counter()
        tracer = self.tracer
        plan = self.plan_for(reference.size, query.size)
        with tracer.span(
            "pipeline.run", cat="pipeline",
            backend=self.params.backend, executor=self.executor.name,
            n_rows=plan.n_rows, n_reference=int(reference.size),
            n_query=int(query.size),
        ) as run_span:
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

            if getattr(self.executor, "needs_spec", False):
                row_results = self._run_specs(
                    reference, query, plan, index_cache
                )
            else:

                def row_fn(row: int) -> RowResult:
                    return self.process_row(
                        reference, query, query_kmers, plan, row,
                        cache=index_cache,
                        packed_reference=packed_reference,
                        packed_query=packed_query,
                    )

                row_results = self.executor.map_rows(
                    row_fn, range(plan.n_rows)
                )

            with tracer.span("stage:host_merge", cat="pipeline") as sp:
                mems, crossing, out_tile, merge_seconds = self.merge.run(
                    packed_reference, packed_query, row_results
                )
                sp.set(
                    n_out_tile_fragments=int(out_tile.size),
                    n_crossing_mems=int(crossing.size),
                )
            run_span.set(n_mems=int(mems.size))

        stats = PipelineStats(
            backend=self.params.backend,
            executor=self.executor.name,
            n_rows=plan.n_rows,
            n_cols=plan.n_cols,
            n_tiles=plan.n_tiles,
            n_candidates=sum(r.n_candidates for r in row_results),
            n_in_tile=sum(r.n_in_tile for r in row_results),
            n_out_tile_fragments=int(out_tile.size),
            n_crossing_mems=int(crossing.size),
            prep_time=prep_time,
            index_time=sum(r.index_seconds for r in row_results),
            match_time=sum(r.match_seconds for r in row_results),
            host_merge_time=merge_seconds,
            total_time=time.perf_counter() - run_t0,
            max_index_bytes=max((r.index_bytes for r in row_results), default=0),
            max_index_locs=max((r.index_locs for r in row_results), default=0),
            index_cache_hits=sum(1 for r in row_results if r.cache_hit),
            index_cache_misses=sum(1 for r in row_results if not r.cache_hit),
            params=self.params.describe(),
        )
        self.executor.annotate(stats)
        self._record_metrics(stats, n_mems=int(mems.size))
        return mems, stats

    def _run_specs(
        self, reference: np.ndarray, query: np.ndarray, plan, index_cache
    ) -> list[RowResult]:
        """Dispatch rows to a spec-based (process) executor.

        The closure-based path cannot cross a process boundary, so the work
        travels as a picklable :class:`repro.core.procpool.RowTaskSpec`.
        When the caller's cache is already fully warm, the spec says so:
        workers then warm their own sessions up front and report the same
        all-hit / zero-index-time stats a warm serial session does.
        """
        from repro.core import procpool

        assume_warm = False
        if index_cache is not None:
            cache_info = getattr(index_cache, "cache_info", None)
            if cache_info is not None:
                info = cache_info()
                assume_warm = 0 < info["n_rows"] <= info["n_cached"]
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
        return self.executor.map_row_specs(spec, range(plan.n_rows))

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
        metrics.counter("stage.mems", stage="tile_match").inc(stats.n_in_tile)
        metrics.counter("stage.fragments", stage="host_merge").inc(
            stats.n_out_tile_fragments
        )
        metrics.counter("stage.mems", stage="host_merge").inc(
            stats.n_crossing_mems
        )
        metrics.counter("index.cache.hits").inc(stats.index_cache_hits)
        metrics.counter("index.cache.misses").inc(stats.index_cache_misses)
        for stage, seconds in (
            ("prep", stats.prep_time),
            ("row_index", stats.index_time),
            ("tile_match", stats.match_time),
            ("host_merge", stats.host_merge_time),
        ):
            metrics.histogram("stage.seconds", stage=stage).observe(seconds)
        metrics.histogram("pipeline.total_seconds").observe(stats.total_time)

    def build_row_indexes(self, reference: np.ndarray, cache=None) -> float:
        """Run only the row-index stage for every row; returns build seconds.

        This is the paper's Table III quantity (index construction without
        matching) and the session's warm-up path.
        """
        plan = self.plan_for(reference.size, self.params.tile_size)
        tracer = self.tracer

        if getattr(self.executor, "needs_spec", False):
            with tracer.span(
                "pipeline.build_row_indexes", cat="pipeline",
                n_rows=plan.n_rows,
            ):
                return self._build_specs(reference, plan, cache)

        def row_fn(row: int) -> float:
            with tracer.span("stage:row_index", cat="pipeline", row=row) as sp:
                _, seconds, cache_hit = self.row_index.run(
                    reference, plan, row, cache=cache
                )
                sp.set(cache_hit=cache_hit)
            return seconds

        with tracer.span(
            "pipeline.build_row_indexes", cat="pipeline", n_rows=plan.n_rows
        ):
            return float(
                sum(self.executor.map_rows(row_fn, range(plan.n_rows)))
            )

    def _build_specs(self, reference: np.ndarray, plan, cache) -> float:
        """Spec-based (process) warm path: build in workers, fill ``cache``.

        Rows the caller's cache already holds are skipped (counted as hits
        by the cache itself, matching the serial ``get_or_build`` path);
        freshly built indexes are written back so the *caller's* cache ends
        fully warm, not just the workers' — ``MemSession.warm()`` promises
        ``cache_info()["n_cached"] == n_rows`` afterwards.
        """
        from repro.core import procpool

        if cache is None:
            missing = list(range(plan.n_rows))
        else:
            missing = [
                row for row in range(plan.n_rows) if cache.get(row) is None
            ]
        spec = procpool.make_spec(
            reference, self.params, use_cache=True,
            token=_cache_token(cache), tracer=self.tracer,
            store=getattr(cache, "store", None),
        )
        total = 0.0
        for row, index, seconds in self.executor.build_row_specs(spec, missing):
            if cache is not None:
                cache.put(row, index)
            total += seconds
        return float(total)
