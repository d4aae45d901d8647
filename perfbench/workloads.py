"""The three workloads: inputs in memory -> set-up -> timed loop -> checks.

Each run returns an :class:`Outcome`: the end-to-end metrics (untraced
run) or the per-layer metrics (traced run), the counts of operations
attempted and failed, the output problems found, and a record of
everything needed to compare two runs.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.serve import MemServer
from repro.core.session import MemSession
from repro.errors import ServerOverloadedError

from perfbench.check import baseline_digest, digest, mem_problems
from perfbench.inputs import PRESETS, PairPreset, ReadPreset, pair_inputs, read_inputs
from perfbench.spans import Recorder, totals_by_request, traced

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Seconds a served request may take before it counts as timed out.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    record: dict = field(default_factory=dict)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rank(values, q: float) -> float:
    """Nearest-rank percentile: at least ``(1 - q) * n`` values lie at or above it."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    preset = PRESETS[name]
    recorder = Recorder() if trace else None
    if isinstance(preset, PairPreset):
        outcome = run_pair(preset, seed, seconds, recorder, out_dir)
    else:
        outcome = run_reads(preset, seed, seconds, recorder, out_dir)
    if recorder is not None:
        recorder.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    outcome.record.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        cpu_count=nproc(), python=platform.python_version(),
        numpy=np.__version__, git_sha=git_sha(out_dir.parent),
        attempted=outcome.attempted, failed=outcome.failed,
        problems=outcome.problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    )
    return outcome


def _setups(make, close, reps: int):
    """Build the warm object ``reps`` times; keep the last, close the rest."""
    seconds = []
    obj = None
    for _ in range(reps):
        if obj is not None:
            close(obj)
            obj = None
        t0 = time.perf_counter()
        obj = make()
        seconds.append(time.perf_counter() - t0)
    return obj, seconds


def _traced_setup(recorder, make):
    with traced(recorder), recorder.request("setup"):
        return _setups(make, None, 1)


def _grid(session: MemSession, n_query: int) -> dict:
    plan = session.pipeline.plan_for(session.reference.size, n_query)
    return {"tile_size": plan.tile_size, "rows": plan.n_rows, "cols": plan.n_cols}


# -- pair workloads: a closed loop with one caller ----------------------------


@dataclass
class Loop:
    """Calls of a closed loop: per successful call its seconds, request id
    and pipeline stats; the first answer to each query; the failures."""

    seconds: list = field(default_factory=list)
    rids: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    n_mems: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: Calls whose answer differed from the first answer to the same query.
    changed: int = 0

    @property
    def calls(self) -> int:
        return len(self.seconds) + len(self.errors)


def _closed_loop(
    session, queries, budget_s, recorder=None, min_calls=1, loop=None, start=0
) -> Loop:
    """Call ``find_mems`` on ``queries`` in turn, at least ``min_calls``
    times, then while the next call (as long as the last) still ends
    within ``budget_s``. Call ``i`` is request ``start + i`` and sends
    query ``(start + i) % len(queries)``; results add to ``loop``.

    Only the first answer to each query is kept, so the loop holds the
    same memory however many calls fit in the budget.
    """
    loop = Loop() if loop is None else loop
    t_start = time.perf_counter()
    last = 0.0
    i = 0
    while i < min_calls or time.perf_counter() - t_start + last <= budget_s:
        rid = start + i
        j = rid % len(queries)
        scope = recorder.request(rid) if recorder else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = session.find_mems(queries[j])
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            loop.errors.append(repr(exc))
        else:
            loop.seconds.append(time.perf_counter() - t0)
            loop.rids.append(rid)
            loop.stats.append(result.stats)
            loop.n_mems.append(len(result))
            first = loop.answers.setdefault(j, result)
            if first is not result and not np.array_equal(first.array, result.array):
                loop.changed += 1
            # Drop the answer before the next call, so peak memory does not
            # depend on how many calls fit in the budget.
            del result, first
        last = time.perf_counter() - t0
        i += 1
    return loop


def _alternating(session, queries, chunk, rounds, budget_s, recorder) -> tuple[Loop, Loop]:
    """Rounds of ``chunk`` untraced calls then the same ``chunk`` traced, at
    most ``rounds``, while the next round still fits in ``budget_s``;
    returns ``(untraced, traced)``. Alternating puts machine drift on both
    sides alike, so their ratio is the tracing overhead."""
    plain, spans = Loop(), Loop()
    t_start = time.perf_counter()
    last = 0.0
    k = 0
    while k < rounds and (k == 0 or time.perf_counter() - t_start + last <= budget_s):
        t0 = time.perf_counter()
        _closed_loop(session, queries, 0, None, chunk, plain, k * chunk)
        with traced(recorder):
            _closed_loop(session, queries, 0, recorder, chunk, spans, k * chunk)
        last = time.perf_counter() - t0
        k += 1
    return plain, spans


def _cache_lookups(session, before: dict) -> tuple[int, int]:
    """Row-index cache hits and lookups since ``before``."""
    after = session.cache_info()
    hits = after["hits"] - before["hits"]
    return hits, hits + after["misses"] - before["misses"]


def run_pair(preset: PairPreset, seed, seconds, recorder, out_dir) -> Outcome:
    reference, query = pair_inputs(preset, seed)
    L = preset.min_length

    def make():
        session = MemSession(reference, min_length=L, executor="serial")
        session.warm()
        return session

    if recorder is None:
        session, setup_s = _setups(make, lambda s: None, SETUP_REPS)
        loop = _closed_loop(session, [query], seconds, min_calls=3)
    else:
        session, setup_s = _traced_setup(recorder, make)
        before = session.cache_info()
        loop, t_loop = _alternating(
            session, [query], 1, math.inf, seconds, recorder
        )
        hits, lookups = _cache_lookups(session, before)
    rss = peak_rss_mb()

    problems = []
    loops = [loop] if recorder is None else [loop, t_loop]
    answers = [lp.answers[0] for lp in loops if lp.answers]
    if any(lp.changed for lp in loops) or any(
        not np.array_equal(a.array, answers[0].array) for a in answers[1:]
    ):
        problems.append("find_mems returned different MEM sets for one query")
    if answers:
        mems = answers[0].array
        problems += mem_problems(reference, query, mems, L)
        [want] = baseline_digest(preset.baseline, reference, [query], L, out_dir)
        if digest(mems) != want:
            problems.append(f"MEM set differs from the {preset.baseline} baseline")
    attempted = sum(lp.calls for lp in loops)
    failed = sum(len(lp.errors) for lp in loops)
    record = {
        "ref_length": int(reference.size), "query_length": int(query.size),
        "min_length": L, "grid": _grid(session, query.size),
        "setup_s": setup_s, "call_s": loop.seconds,
        "n_mems": loop.n_mems[:1], "errors": loop.errors[:5],
        "percentile_samples": len(loop.seconds),
    }
    if not loop.seconds:
        return Outcome({}, attempted, failed, problems, record)
    if recorder is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "extract_s": (statistics.median(loop.seconds), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return Outcome(metrics, attempted, failed, problems, record)

    record["traced_call_s"] = t_loop.seconds
    if not t_loop.seconds:
        return Outcome({}, attempted, failed, problems, record)
    # One caller waiting for each reply: latency is the call's duration,
    # nothing queues, and the highest rate it drives is its completion rate.
    serve = {
        "serve.latency_ms_p50": 1000 * statistics.median(t_loop.seconds),
        "serve.latency_ms_p95": 1000 * rank(t_loop.seconds, 0.95),
        "serve.service_ms_p50": 1000 * statistics.median(t_loop.seconds),
        "serve.service_ms_p95": 1000 * rank(t_loop.seconds, 0.95),
        "serve.queue_wait_ms_p50": 0.0,
        "serve.queue_wait_ms_p95": 0.0,
        "serve.shed": 0,
        "serve.generator_lag_ms_p95": 0.0,
        "serve.max_rps": len(t_loop.seconds) / sum(t_loop.seconds),
    }
    metrics = layer_metrics(
        totals_by_request(recorder.spans), t_loop,
        cache_hit_ratio=hits / lookups if lookups else 1.0,
        serve=serve,
        overhead=statistics.median(t_loop.seconds) / statistics.median(loop.seconds) - 1,
    )
    return Outcome(metrics, attempted, failed, problems, record)


# -- read-serve: an open loop of reads into a MemServer -----------------------


@dataclass
class Step:
    """One offered rate of the open loop."""

    rate: float
    sent: int = 0
    shed: int = 0
    errors: int = 0
    timeouts: int = 0
    latency_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    #: ``(request id, read index, latency ms, MatchSet)`` per completed request.
    done: list = field(default_factory=list)

    def meets(self, limit_ms: float) -> bool:
        return (
            not (self.shed or self.errors or self.timeouts)
            and bool(self.latency_ms)
            and rank(self.latency_ms, 0.95) <= limit_ms
        )

    def summary(self) -> dict:
        lat = self.latency_ms
        return {
            "offered_rps": self.rate, "sent": self.sent, "completed": len(lat),
            "shed": self.shed, "errors": self.errors, "timeouts": self.timeouts,
            "p50_ms": rank(lat, 0.5) if lat else None,
            "p95_ms": rank(lat, 0.95) if lat else None,
            "generator_lag_ms_p95": rank(self.lag_ms, 0.95) if self.lag_ms else None,
        }


def _open_loop(server, reads, rate, n, first, recorder) -> Step:
    """Send ``n`` requests at ``rate`` req/s on schedule; wait for them all.

    Latency runs from each request's due time, so a late generator or a
    stalled server is charged to the requests it delayed.
    """
    step = Step(rate=rate)
    pending = []
    due0 = time.perf_counter() + 0.005
    for i in range(n):
        rid = first + i
        due = due0 + i / rate
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        # A fresh view per request lets the traced run map the server's
        # find_mems call back to its request.
        query = reads[rid % len(reads)][:]
        if recorder is not None:
            recorder.request_of[id(query)] = ("req", rid)
        sent = time.perf_counter()
        step.lag_ms.append(1000 * (sent - due))
        step.sent += 1
        try:
            future = server.submit(query)
        except ServerOverloadedError:
            step.shed += 1
            continue
        pending.append((rid, sent - due, future))
    for rid, late, future in pending:
        try:
            result = future.result(timeout=REQUEST_TIMEOUT_S)
        except TimeoutError:
            step.timeouts += 1
            continue
        if not result.ok:
            step.errors += 1
            continue
        latency = 1000 * (late + result.seconds)
        step.latency_ms.append(latency)
        step.done.append((rid, rid % len(reads), latency, result.value))
    return step


def run_reads(preset: ReadPreset, seed, seconds, recorder, out_dir) -> Outcome:
    reference, reads = read_inputs(preset, seed)
    L = preset.min_length
    workers = nproc()

    def make():
        session = MemSession(reference, min_length=L, executor="serial")
        session.warm()
        return MemServer(session, tier="thread", workers=workers)

    if recorder is None:
        server, setup_s = _setups(make, lambda s: s.close(), SETUP_REPS)
    else:
        server, setup_s = _traced_setup(recorder, make)
    session = server.session
    record = {
        "ref_length": int(reference.size), "read_length": preset.read_length,
        "n_reads": len(reads), "min_length": L, "workers": workers,
        "grid": _grid(session, preset.read_length), "setup_s": setup_s,
    }
    if recorder is None:
        # One caller, one read at a time, on the idle warm server's session.
        try:
            idle = _closed_loop(session, reads, seconds)
        finally:
            server.close()
        rss = peak_rss_mb()
        problems = _check_reads(preset, reference, reads, out_dir, [idle], [])
        record.update(call_s_median=statistics.median(idle.seconds or [0.0]),
                      percentile_samples=len(idle.seconds), errors=idle.errors[:5])
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "extract_s": (statistics.median(idle.seconds), "s"),
            "peak_rss_mb": (rss, "MB"),
        } if idle.seconds else {}
        return Outcome(metrics, idle.calls, len(idle.errors), problems, record)

    # Traced run: a fixed set of idle reads untraced and traced (overhead and
    # work counters that repeat exactly), then the open loop: the fixed rate,
    # and the rate ladder up to the first step that misses the limit.
    fixed_set = reads[: preset.idle_reads]
    before = session.cache_info()
    chunk = min(20, len(fixed_set))
    idle, t_idle = _alternating(
        session, fixed_set, chunk, len(fixed_set) // chunk, math.inf, recorder
    )
    hits, lookups = _cache_lookups(session, before)
    fixed_n = max(preset.step_requests, math.ceil(preset.fixed_rate * seconds))
    try:
        with traced(recorder):
            # Request ids start at 0, so the sampled first reads are served.
            steps = [_open_loop(server, reads, preset.fixed_rate, fixed_n, 0, recorder)]
            while steps[-1].meets(preset.p95_limit_ms) and steps[-1].rate < preset.ladder_max:
                first = sum(s.sent for s in steps)
                steps.append(_open_loop(
                    server, reads, steps[-1].rate + preset.ladder_step,
                    preset.step_requests, first, recorder,
                ))
    finally:
        server.close()

    # Every ladder step but the last meets the limit. The fixed-rate step
    # always counts; a later step that missed the limit probes the knee, so
    # its sheds are expected there, but its errors and timeouts are not.
    meets = [s.meets(preset.p95_limit_ms) for s in steps]
    loops = [idle, t_idle]
    attempted = sum(lp.calls for lp in loops) + sum(s.sent for s in steps)
    failed = sum(len(lp.errors) for lp in loops) + sum(
        s.errors + s.timeouts + (s.shed if ok or i == 0 else 0)
        for i, (s, ok) in enumerate(zip(steps, meets, strict=True))
    )
    problems = _check_reads(preset, reference, reads, out_dir, loops, steps)
    fixed = steps[0]
    record.update(
        percentile_samples=len(fixed.latency_ms),
        limit={"p95_ms": preset.p95_limit_ms, "shed": 0},
        steps=[s.summary() for s in steps],
        errors=(idle.errors + t_idle.errors)[:5],
    )
    if not (idle.seconds and t_idle.seconds and fixed.latency_ms):
        return Outcome({}, attempted, failed, problems, record)
    spans = totals_by_request(recorder.spans)
    service = [1000 * spans.get(("req", rid), {}).get("session.find_mems.total_s", 0.0)
               for rid, _, _, _ in fixed.done]
    wait = [lat - svc for (_, _, lat, _), svc in zip(fixed.done, service, strict=True)]
    serve = {
        "serve.latency_ms_p50": rank(fixed.latency_ms, 0.5),
        "serve.latency_ms_p95": rank(fixed.latency_ms, 0.95),
        "serve.service_ms_p50": rank(service, 0.5),
        "serve.service_ms_p95": rank(service, 0.95),
        "serve.queue_wait_ms_p50": rank(wait, 0.5),
        "serve.queue_wait_ms_p95": rank(wait, 0.95),
        "serve.shed": sum(s.shed for s in steps),
        "serve.generator_lag_ms_p95": rank(fixed.lag_ms, 0.95),
        "serve.max_rps": max(
            (s.rate for s, ok in zip(steps, meets, strict=True) if ok), default=0.0
        ),
    }
    metrics = layer_metrics(
        spans, t_idle,
        cache_hit_ratio=hits / lookups if lookups else 1.0,
        serve=serve,
        overhead=statistics.median(t_idle.seconds) / statistics.median(idle.seconds) - 1,
    )
    return Outcome(metrics, attempted, failed, problems, record)


def _check_reads(preset: ReadPreset, reference, reads, out_dir, loops, steps) -> list[str]:
    """Every answer is a valid MEM set, one read always gets one answer,
    and the sampled reads match the independent finder."""
    L = preset.min_length
    problems = []
    if any(lp.changed for lp in loops):
        problems.append("find_mems returned different MEM sets for one read")
    answers = [item for lp in loops for item in lp.answers.items()]
    answers += [(j, m) for s in steps for _, j, _, m in s.done]
    by_read: dict[int, str] = {}
    for j, result in answers:
        found = mem_problems(reference, reads[j], result.array, L)
        if found:
            problems.append(f"read {j}: " + "; ".join(found))
        d = digest(result.array)
        if by_read.setdefault(j, d) != d:
            problems.append(f"read {j} got different MEM sets")
    sample = list(range(preset.sample_reads))
    want = baseline_digest(
        preset.baseline, reference, [reads[j] for j in sample], L, out_dir
    )
    for j, d in zip(sample, want, strict=True):
        if by_read.get(j) != d:
            problems.append(f"read {j} differs from the {preset.baseline} baseline")
    return problems[:20]


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(spans, ops: Loop, cache_hit_ratio, serve, overhead
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    Set-up layers come from the one traced set-up. Operation layers come
    from the traced loop ``ops``: the median seconds and the mean counts per
    operation. A span's ``*_s`` is its self time, so the layers of one
    operation add up to its wall time.
    """
    setup = spans.get("setup", {})
    rows = [spans.get(rid, {}) for rid in ops.rids]

    def med(key):
        return float(statistics.median(row.get(key, 0.0) for row in rows))

    def mean(key):
        return float(statistics.fmean(row.get(key, 0) for row in rows))

    def stat(attr):
        return float(statistics.median(getattr(st, attr) for st in ops.stats))

    n_mems = float(statistics.fmean(ops.n_mems))
    candidates = mean("vectorized.candidates.candidates")
    m = {
        "session.warm_s": (setup.get("session.warm.total_s", 0.0), "s"),
        "session.cache_hit_ratio": (cache_hit_ratio, "ratio"),
        "pipeline.prep_s": (stat("prep_time"), "s"),
        "pipeline.row_index_s": (stat("index_time"), "s"),
        "pipeline.tile_match_s": (stat("match_time"), "s"),
        "pipeline.host_merge_s": (stat("host_merge_time"), "s"),
        "pipeline.tiles": (stat("n_tiles"), "count"),
        "pipeline.mems": (n_mems, "count"),
        "sequence.kmer_codes_s": (setup.get("sequence.kmer_codes.self_s", 0.0), "s"),
        "sequence.kmer_codes_bases": (setup.get("sequence.kmer_codes.bases", 0), "count"),
        "kmer_index.build_s": (setup.get("kmer_index.build.self_s", 0.0), "s"),
        "kmer_index.rows_built": (setup.get("kmer_index.build.rows_built", 0), "count"),
        "kmer_index.locs": (setup.get("kmer_index.build.locs", 0), "count"),
        "kmer_index.lookup_s": (med("kmer_index.lookup.self_s"), "s"),
        "kmer_index.lookups": (mean("kmer_index.lookup.lookups"), "count"),
        "vectorized.candidates": (candidates, "count"),
        "vectorized.candidates_s": (med("vectorized.candidates.self_s"), "s"),
        "vectorized.extend_s": (med("vectorized.extend.self_s"), "s"),
        "vectorized.useful_ratio": (n_mems / candidates if candidates else 0.0, "ratio"),
        "compare.calls": (mean("compare.calls"), "count"),
        "compare.pairs": (mean("compare.pairs"), "count"),
        "compare.bases_agreed": (mean("compare.bases_agreed"), "count"),
        "compare.s": (med("compare.self_s"), "s"),
        "types.dedup_s": (med("types.dedup.self_s"), "s"),
        "types.dedup_rows": (mean("types.dedup.rows"), "count"),
        "host_merge.fragments": (mean("host_merge.fragments"), "count"),
        "host_merge.crossing_mems": (mean("host_merge.crossing_mems"), "count"),
        "host_merge.s": (med("host_merge.self_s"), "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    units = {"serve.shed": "count", "serve.max_rps": "1/s"}
    for name, value in serve.items():
        m[name] = (float(value), units.get(name, "ms"))
    return m
