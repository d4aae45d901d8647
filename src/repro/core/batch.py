"""Batched multi-query MEM extraction over one warm :class:`MemSession`.

The paper's pitch is throughput — all MEMs of *many* queries against one
indexed reference — and PR 1's :class:`~repro.core.session.MemSession`
already amortizes the index builds across queries. What was still missing
is the scheduling layer: every many-query consumer iterated queries one at
a time, serializing the match stage even though its hot kernels release
the GIL. :class:`BatchRunner` is that layer, shaped like an inference
engine's batch scheduler over a warm model:

- **query-level parallelism in two tiers** — ``tier="thread"`` (default)
  runs queries on a thread pool over the shared session (each query runs
  its rows with the session's ``executor``); ``tier="process"`` ships
  whole queries to the worker-process pool of :mod:`repro.core.procpool`
  (true multi-core: workers attach to the shared 2-bit reference by name
  and serve from their own warm per-process sessions);
- **bounded in-flight work** — submission blocks once ``max_in_flight``
  queries are pending, so a streaming producer (e.g.
  :func:`repro.sequence.fasta.iter_fasta` over a 10M-read file) is
  backpressured instead of materialized;
- **ordered or as-completed** result iteration;
- **per-query error isolation** — one poisoned record yields a
  :class:`BatchError` result instead of killing the batch.

Results stream back as :class:`BatchResult` / :class:`BatchError` objects
carrying the submission index, the record label (FASTA header), the value,
and the per-query wall seconds. The runner records ``batch.run`` /
``batch.query`` spans and ``batch.*`` metrics through the standard
``tracer=`` argument (see ``docs/observability.md``).

Example::

    from repro.core.batch import BatchRunner
    from repro.sequence.fasta import iter_fasta

    runner = BatchRunner(reference, min_length=40, workers=4)
    for result in runner.run(iter_fasta("reads.fa"), ordered=False):
        if result.ok:
            print(result.label, len(result.value))
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator

from repro.analysis.lock_tracker import new_lock
from repro.core.params import GpuMemParams
from repro.core.pipeline import PipelineStats, as_codes
from repro.core.session import MemSession
from repro.errors import InvalidParameterError
from repro.obs.shipping import merge_payload
from repro.obs.tracer import Tracer, get_tracer
from repro.sequence.fasta import FastaRecord
from repro.types import MatchSet

#: Query-dispatch tiers of :class:`BatchRunner`.
BATCH_TIERS = ("thread", "process")


@dataclass(frozen=True)
class BatchResult:
    """One successfully processed query of a batch."""

    #: Submission order of the query (0-based; stable across ordered and
    #: as-completed iteration, so results can always be re-sorted).
    index: int
    #: Record label (FASTA header / caller-provided), if any.
    label: str | None
    #: What the per-query function returned (a
    #: :class:`~repro.types.MatchSet` for the default ``find_mems`` path).
    value: Any
    #: Wall seconds this query spent executing (queueing excluded).
    seconds: float

    ok: bool = field(default=True, init=False)
    error: BaseException | None = field(default=None, init=False)


@dataclass(frozen=True)
class BatchError:
    """One failed query of a batch (isolation result, not an exception)."""

    index: int
    label: str | None
    #: The exception the per-query function raised.
    error: BaseException
    seconds: float

    ok: bool = field(default=False, init=False)
    value: Any = field(default=None, init=False)

    def reraise(self) -> None:
        """Re-raise the captured exception (for callers that want to fail)."""
        raise self.error


@dataclass(frozen=True)
class _Item:
    """Normalized work unit: submission index, optional label, raw query."""

    index: int
    label: str | None
    query: Any


def _as_items(queries: Iterable) -> Iterator[_Item]:
    """Lazily normalize a query stream into :class:`_Item` units.

    Accepts raw sequences (str / codes / PackedSequence),
    :class:`~repro.sequence.fasta.FastaRecord` objects (header becomes the
    label), and ``(label, query)`` pairs. Deliberately a generator: the
    input stream is consumed only as fast as backpressure admits.
    """
    for index, entry in enumerate(queries):
        if isinstance(entry, FastaRecord):
            yield _Item(index, entry.header, entry.codes)
        elif (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], str)
        ):
            yield _Item(index, entry[0], entry[1])
        else:
            yield _Item(index, None, entry)


class BatchRunner:
    """Schedule many queries concurrently against one warm session.

    Parameters
    ----------
    session_or_reference:
        An existing :class:`MemSession` to bind, or a raw reference
        (string / codes / PackedSequence) from which one is built using
        ``params`` / ``**kwargs``.
    params, **kwargs:
        Forwarded to :class:`MemSession` when a raw reference is given
        (``min_length=...``, ``executor=...``, ...). Invalid alongside an
        existing session.
    workers:
        Query-level pool width. In the thread tier each in-flight query
        still runs its tile rows with the session's ``executor``. In the
        process tier it is the worker-process count (rows run serially
        inside each worker).
    tier:
        ``"thread"`` (default) runs queries on an in-process pool;
        ``"process"`` ships each query to the shared
        :mod:`repro.core.procpool` worker pool. The process tier supports
        only the default ``find_mems`` per-query function — a custom
        ``fn`` is a closure that cannot cross the process boundary.
    max_in_flight:
        Backpressure bound — at most this many queries are submitted but
        unfinished at any moment (default ``2 * workers``). Submission
        (and therefore consumption of a streaming input) blocks once the
        bound is reached.
    errors:
        ``"isolate"`` (default) turns a per-query exception into a
        :class:`BatchError` result; ``"raise"`` re-raises it at the
        iteration point (remaining in-flight queries are drained).
    tracer:
        Optional :class:`repro.obs.Tracer`; defaults to the session's.
    lock_factory:
        Injectable ``name -> lock`` factory (see
        :mod:`repro.analysis.lock_tracker`); forwarded to a freshly
        built session and used for the runner's own in-flight lock.
    """

    def __init__(
        self,
        session_or_reference,
        params: GpuMemParams | None = None,
        /,
        *,
        workers: int | None = None,
        max_in_flight: int | None = None,
        errors: str = "isolate",
        tier: str = "thread",
        tracer: Tracer | None = None,
        lock_factory=None,
        **kwargs,
    ):
        if isinstance(session_or_reference, MemSession):
            if params is not None or kwargs:
                raise InvalidParameterError(
                    "pass params/kwargs only when building a new session, "
                    "not alongside an existing MemSession"
                )
            self.session = session_or_reference
            self.tracer = get_tracer(tracer) if tracer else self.session.tracer
            lock_factory = lock_factory or self.session._lock_factory
        else:
            self.session = MemSession(
                session_or_reference, params, tracer=tracer,
                lock_factory=lock_factory, **kwargs
            )
            self.tracer = self.session.tracer
            lock_factory = self.session._lock_factory
        if workers is not None and workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers) if workers else min(8, os.cpu_count() or 1)
        if max_in_flight is None:
            max_in_flight = 2 * self.workers
        if max_in_flight < 1:
            raise InvalidParameterError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.max_in_flight = int(max_in_flight)
        if errors not in ("isolate", "raise"):
            raise InvalidParameterError(
                f"errors must be 'isolate' or 'raise', got {errors!r}"
            )
        self.errors = errors
        if tier not in BATCH_TIERS:
            raise InvalidParameterError(
                f"tier must be one of {BATCH_TIERS}, got {tier!r}"
            )
        self.tier = tier
        self._proc_spec = None
        if tier == "process":
            # Publish the reference once; per-query submissions then only
            # pickle the tiny locator + query bytes.
            from repro.core import procpool

            self._proc_spec = procpool.make_spec(
                self.session.reference, self.session.params,
                use_cache=True, assume_warm=True, tracer=self.tracer,
                store=self.session.store,
            )
        self._in_flight = 0
        self._in_flight_lock = (lock_factory or new_lock)("batch.in_flight")  # guards: _in_flight

    # -- iteration entry points ------------------------------------------------
    def run(
        self,
        queries: Iterable,
        *,
        fn: Callable | None = None,
        ordered: bool = True,
    ) -> Iterator[BatchResult | BatchError]:
        """Stream results for every query in ``queries``.

        ``fn`` is the per-query function (default: the bound session's
        ``find_mems``); it receives the raw query exactly as supplied.
        ``ordered=True`` yields results in submission order;
        ``ordered=False`` yields each result as soon as it finishes
        (lower latency to first result, same set of results — use
        ``result.index`` to re-sort). Either way at most
        :attr:`max_in_flight` queries are pending at once.
        """
        if fn is not None and self.tier == "process":
            raise InvalidParameterError(
                "the process tier runs only the default find_mems per-query "
                "function; a custom fn cannot cross the process boundary"
            )
        if fn is None:
            fn = self._find_mems
        return self._drive(_as_items(queries), fn, ordered)

    def find_mems(
        self, queries: Iterable, *, ordered: bool = True
    ) -> Iterator[BatchResult | BatchError]:
        """``run`` with the session's ``find_mems`` as the per-query fn."""
        return self.run(queries, ordered=ordered)

    def map(self, fn: Callable, queries: Iterable) -> list:
        """Ordered list of ``fn(query)`` values; per-query errors re-raise.

        The strict counterpart of :meth:`run` for callers that need plain
        values with fail-fast semantics (``ReadMapper.map_reads``,
        ``distance_matrix``).
        """
        if self.tier == "process":
            raise InvalidParameterError(
                "the process tier runs only the default find_mems per-query "
                "function; a custom fn cannot cross the process boundary"
            )
        out = []
        for result in self._drive(_as_items(queries), fn, ordered=True,
                                  errors="raise"):
            out.append(result.value)
        return out

    # -- internals --------------------------------------------------------------
    def _find_mems(self, query):
        # as_codes here (inside the worker) so malformed records are
        # isolated per query rather than killing the submission loop.
        return self.session.find_mems(as_codes(query))

    def _drive(
        self,
        items: Iterator[_Item],
        fn: Callable,
        ordered: bool,
        errors: str | None = None,
    ) -> Iterator[BatchResult | BatchError]:
        errors = errors or self.errors
        tracer = self.tracer
        n_done = 0
        n_errors = 0
        with tracer.span(
            "batch.run", cat="batch",
            workers=self.workers, max_in_flight=self.max_in_flight,
            ordered=ordered, tier=self.tier,
        ) as run_span:
            if self.tier == "process":
                # The process pool is shared and long-lived (see
                # repro.core.procpool); it outlives this run on purpose.
                from contextlib import nullcontext

                from repro.core import procpool

                pool_cm = nullcontext(procpool.get_pool(self.workers))
            else:
                pool_cm = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="gpumem-batch"
                )
            with pool_cm as pool:
                if ordered:
                    results = self._ordered(pool, items, fn)
                else:
                    results = self._as_completed(pool, items, fn)
                for result in results:
                    n_done += 1
                    if not result.ok:
                        n_errors += 1
                        if errors == "raise":
                            raise result.error
                    yield result
            run_span.set(n_queries=n_done, n_errors=n_errors)
        metrics = tracer.metrics
        if metrics.enabled:
            metrics.counter("batch.runs").inc()

    def _ordered(self, pool, items, fn):
        """Sliding submission window; yield strictly in submission order."""
        window: deque = deque()
        for item in items:
            while len(window) >= self.max_in_flight:
                yield self._result_of(window.popleft())
            window.append(self._submit(pool, fn, item))
        while window:
            yield self._result_of(window.popleft())

    def _as_completed(self, pool, items, fn):
        """Same bounded window; yield each result as soon as it finishes."""
        pending: set = set()
        for item in items:
            while len(pending) >= self.max_in_flight:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield self._result_of(future)
            pending.add(self._submit(pool, fn, item))
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield self._result_of(future)

    def _submit(self, pool, fn, item: _Item):
        metrics = self.tracer.metrics
        if metrics.enabled:
            metrics.counter("batch.queued").inc()
        with self._in_flight_lock:
            self._in_flight += 1
            if metrics.enabled:
                metrics.gauge("batch.in_flight").set(self._in_flight)
        if self.tier == "process":
            return self._submit_process(pool, item)
        return pool.submit(self._run_one, fn, item)

    def _submit_process(self, pool, item: _Item) -> Future:
        """Ship one query to the worker-process pool.

        The query is encoded parent-side so a malformed record resolves to
        an error payload immediately instead of poisoning a worker; good
        records cross the boundary as raw 2-bit code bytes riding a spec
        that references the already-published shared reference.
        """
        from repro.core import procpool

        try:
            codes = as_codes(item.query)
        except Exception as exc:
            future: Future = Future()
            future.set_result({
                "ok": False, "index": item.index, "label": item.label,
                "error": exc, "seconds": 0.0,
            })
            return future
        spec = replace(self._proc_spec, query=codes.tobytes())
        return pool.submit(procpool.run_query_task, spec, item.index, item.label)

    def _result_of(self, future: Future) -> BatchResult | BatchError:
        """Resolve one future into a result object.

        Thread-tier futures already hold :class:`BatchResult` /
        :class:`BatchError` (accounting happened in ``_run_one``).
        Process-tier futures hold the worker's plain payload dict; convert
        it here and do the in-flight/metrics accounting the worker could
        not (its tracer is not ours).
        """
        result = future.result()
        if isinstance(result, (BatchResult, BatchError)):
            return result
        payload = result
        merge_payload(self.tracer, payload.get("obs"))
        seconds = payload["seconds"]
        out: BatchResult | BatchError
        if payload["ok"]:
            value = MatchSet(
                payload["array"],
                stats=PipelineStats.from_dict(payload["stats"]),
            )
            out = BatchResult(
                index=payload["index"], label=payload["label"], value=value,
                seconds=seconds,
            )
        else:
            out = BatchError(
                index=payload["index"], label=payload["label"],
                error=payload["error"], seconds=seconds,
            )
        metrics = self.tracer.metrics
        with self._in_flight_lock:
            self._in_flight -= 1
            if metrics.enabled:
                metrics.gauge("batch.in_flight").set(self._in_flight)
        if metrics.enabled:
            outcome = "ok" if out.ok else "error"
            metrics.counter("batch.queries", outcome=outcome).inc()
            metrics.counter("proc.queries", outcome=outcome).inc()
            metrics.histogram("batch.query_seconds").observe(seconds)
        return out

    def _run_one(self, fn, item: _Item) -> BatchResult | BatchError:
        tracer = self.tracer
        metrics = tracer.metrics
        t0 = time.perf_counter()
        try:
            with tracer.span(
                "batch.query", cat="batch", index=item.index,
                label=item.label or "",
            ) as sp:
                value = fn(item.query)
                n_result = getattr(value, "__len__", None)
                if n_result is not None:
                    sp.set(n_results=len(value))
            seconds = time.perf_counter() - t0
            result: BatchResult | BatchError = BatchResult(
                index=item.index, label=item.label, value=value,
                seconds=seconds,
            )
        except Exception as exc:
            seconds = time.perf_counter() - t0
            result = BatchError(
                index=item.index, label=item.label, error=exc,
                seconds=seconds,
            )
        finally:
            with self._in_flight_lock:
                self._in_flight -= 1
                if metrics.enabled:
                    metrics.gauge("batch.in_flight").set(self._in_flight)
        if metrics.enabled:
            outcome = "ok" if result.ok else "error"
            metrics.counter("batch.queries", outcome=outcome).inc()
            metrics.histogram("batch.query_seconds").observe(seconds)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BatchRunner(workers={self.workers}, "
            f"max_in_flight={self.max_in_flight}, errors={self.errors!r}, "
            f"session={self.session!r})"
        )


def find_mems_batch(
    reference,
    queries: Iterable,
    min_length: int,
    *,
    workers: int | None = None,
    ordered: bool = True,
    tracer: Tracer | None = None,
    **kwargs,
) -> list[BatchResult | BatchError]:
    """One-call convenience: batch-extract MEMs of many queries.

    Builds a session, runs every query through a :class:`BatchRunner`,
    and returns the materialized result list. For streaming consumption
    construct a :class:`BatchRunner` directly and iterate :meth:`~BatchRunner.run`.
    """
    runner = BatchRunner(
        reference, min_length=min_length, workers=workers, tracer=tracer,
        **kwargs,
    )
    return list(runner.run(queries, ordered=ordered))
