"""Experiment runner: builds indexes, extracts MEMs, cross-checks outputs.

Every extraction experiment verifies that all tools report the *same MEM
set* before timings are accepted — a wrong-but-fast tool never makes it
into a table.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.baselines import (
    EssaMemFinder,
    MummerFinder,
    SlaMemFinder,
    SparseMemFinder,
    parallel_query_time,
)
from repro.core.matcher import GpuMem
from repro.core.params import GpuMemParams
from repro.core.session import MemSession
from repro.errors import GpuMemError
from repro.sequence.datasets import ExperimentConfig, load_experiment
from repro.types import mems_equal

#: Extra prefix-slicing divisor applied by the benchmarks on top of the
#: library's 1:100 dataset scale. Override with ``REPRO_BENCH_DIV=1`` for
#: the full 1:100 run (slaMEM dominates its cost).
BENCH_DIV = int(os.environ.get("REPRO_BENCH_DIV", "10"))

#: τ values benchmarked for the thread-parallel tools.
TAUS = (1, 4, 8)


def bench_pair(config: ExperimentConfig, div: int | None = None):
    """The (reference, query) pair for one experiment row, bench-sliced."""
    div = BENCH_DIV if div is None else div
    reference, query = load_experiment(config)
    return reference[: reference.size // div], query[: query.size // div]


def gpumem_params(config: ExperimentConfig, **overrides) -> GpuMemParams:
    return GpuMemParams(
        min_length=config.min_length, seed_length=config.seed_length, **overrides
    )


def run_index_experiment(config: ExperimentConfig, div: int | None = None) -> dict[str, float]:
    """One Table III row: index-build seconds per tool column."""
    reference, _ = bench_pair(config, div)
    out: dict[str, float] = {}
    for tau in TAUS:
        f = SparseMemFinder(sparseness=tau)
        out[f"sparseMEM t={tau}"] = f.build_index(reference).seconds
    for tau in TAUS:
        f = EssaMemFinder(sparseness=tau)
        out[f"essaMEM t={tau}"] = f.build_index(reference).seconds
    out["MUMmer"] = MummerFinder().build_index(reference).seconds
    out["slaMEM"] = SlaMemFinder().build_index(reference).seconds
    out["GPUMEM"] = GpuMem(gpumem_params(config)).index_only(reference)
    return out


def run_extraction_experiment(
    config: ExperimentConfig, div: int | None = None
) -> tuple[dict[str, float], dict]:
    """One Table IV row: extraction seconds per tool column.

    Returns ``(times, info)`` where ``info`` carries the (verified-equal)
    MEM count and any skipped columns.
    """
    reference, query = bench_pair(config, div)
    L = config.min_length
    times: dict[str, float] = {}
    skipped: list[str] = []
    mem_sets: dict[str, np.ndarray] = {}

    for family, cls in (("sparseMEM", SparseMemFinder), ("essaMEM", EssaMemFinder)):
        for tau in TAUS:
            col = f"{family} t={tau}"
            if tau > L:
                skipped.append(col)
                continue
            finder = cls(sparseness=tau)
            finder.build_index(reference)
            mems, seconds, _ = parallel_query_time(finder, query, L, tau)
            times[col] = seconds
            mem_sets[col] = mems.array

    f = MummerFinder()
    f.build_index(reference)
    res = f.find_mems(query, L)
    times["MUMmer"] = res.seconds
    mem_sets["MUMmer"] = res.mems.array

    f = SlaMemFinder()
    f.build_index(reference)
    res = f.find_mems(query, L)
    times["slaMEM"] = res.seconds
    mem_sets["slaMEM"] = res.mems.array

    g = MemSession(reference, gpumem_params(config))
    result = g.find_mems(query)
    times["GPUMEM"] = g.stats["total_time"] - g.stats["index_time"]
    mem_sets["GPUMEM"] = result.array

    baseline = mem_sets["GPUMEM"]
    for col, arr in mem_sets.items():
        if not mems_equal(arr, baseline):
            raise GpuMemError(
                f"{config.key}: {col} reported {arr.size} MEMs but GPUMEM "
                f"reported {baseline.size} — outputs must be identical"
            )
    info = {
        "n_mems": int(baseline.size),
        "skipped": skipped,
        "reference_len": int(reference.size),
        "query_len": int(query.size),
    }
    return times, info


def run_session_reuse_experiment(
    reference, queries, params: GpuMemParams
) -> dict:
    """Seed behaviour vs. reusable session over an N-query workload.

    "Seed" is one throwaway matcher per query (per-row indexes rebuilt every
    call); "session" is one :class:`MemSession` serving the whole workload.
    Outputs are asserted identical before timings are reported.
    """
    t0 = time.perf_counter()
    per_call_results = [
        GpuMem(params).find_mems(reference, q) for q in queries
    ]
    per_call_seconds = time.perf_counter() - t0

    session = MemSession(reference, params)
    t0 = time.perf_counter()
    session_results = session.find_mems_batch(queries)
    session_seconds = time.perf_counter() - t0

    for a, b in zip(per_call_results, session_results, strict=True):
        if not mems_equal(a.array, b.array):
            raise GpuMemError(
                "session-reuse changed the MEM set — outputs must be identical"
            )
    n = max(1, len(queries))
    return {
        "n_queries": len(queries),
        "n_mems": int(sum(len(r) for r in session_results)),
        "per_call_seconds": per_call_seconds,
        "session_seconds": session_seconds,
        "per_call_qps": n / per_call_seconds if per_call_seconds > 0 else float("inf"),
        "session_qps": n / session_seconds if session_seconds > 0 else float("inf"),
        "speedup": per_call_seconds / session_seconds
        if session_seconds > 0
        else float("inf"),
        "cache_info": session.cache_info(),
    }


def environment_info(div: int | None = None) -> dict:
    """Capture the measurement environment for bench provenance.

    ``div`` is the slicing divisor the run uses (default ``BENCH_DIV``).
    """
    import platform

    import numpy

    import repro

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "bench_div": BENCH_DIV if div is None else div,
    }


def time_call(fn, *args, repeat: int = 1, **kwargs):
    """Best-of-``repeat`` timing helper returning (seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result
