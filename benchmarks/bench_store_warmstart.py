"""Warm-start through the persistent index store: cold build vs mmap reload.

The tiered :class:`repro.index.store.IndexStore` exists so a *restarted*
process stops paying Table III's index-construction cost: the first session
builds and persists the reference's index bundle; every later session (same
reference, same params, any process) mmaps it back in. This benchmark
measures exactly that contract on one reference:

- ``cold``  — fresh session + empty store: build + persist the index.
- ``warm``  — fresh session + populated store, hot tier dropped (as a
  process restart would): the index served by ``np.load(mmap_mode='r')``.
- ``rebuild`` — fresh session with no store at all (the pre-store
  behaviour), as the baseline the warm path is saved from.

Results are cross-checked (warm MEMs == cold MEMs == storeless MEMs) before
any timing is accepted. The acceptance criterion for the store PR is a
near-zero warm build: ``warm_seconds`` well under ``rebuild_seconds``
(reported as ``warmstart_speedup``).
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from repro.bench.reporting import series_csv
from repro.core.params import GpuMemParams
from repro.core.session import MemSession
from repro.index.store import IndexStore
from repro.sequence.synthetic import markov_dna, plant_repeats

#: Reference sizes swept (bases); scaled down by the harness divisor.
REFERENCE_BASES = (100_000, 400_000)
#: Fewest reference bases a swept point is scaled down to.
MIN_BASES = 20_000
QUERY_BASES = 2_000


def _reference(n_bases: int, seed: int = 61) -> np.ndarray:
    return plant_repeats(
        markov_dna(n_bases, seed=seed),
        seed=seed + 1,
        n_families=4,
        family_length=(60, 200),
        copies_per_family=(10, 40),
        copy_divergence=0.03,
    )


def _timed_warm(session: MemSession) -> float:
    t0 = time.perf_counter()
    session.warm()
    return time.perf_counter() - t0


def run_warmstart_experiment(n_bases: int, params: GpuMemParams) -> dict:
    """Cold/warm/storeless timings + cross-checked outputs for one |R|."""
    reference = _reference(n_bases)
    rng = np.random.default_rng(63)
    at = int(rng.integers(0, reference.size - QUERY_BASES))
    query = reference[at : at + QUERY_BASES].copy()

    cache_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        store = IndexStore(cache_dir)

        cold_session = MemSession(reference, params, store=store)
        cold_seconds = _timed_warm(cold_session)
        cold_mems = cold_session.find_mems(query)

        # A restart: new session, hot tier gone, bundles still on disk.
        store.clear_hot()
        warm_session = MemSession(reference, params, store=store)
        warm_seconds = _timed_warm(warm_session)
        warm_mems = warm_session.find_mems(query)

        plain_session = MemSession(reference, params)
        rebuild_seconds = _timed_warm(plain_session)
        plain_mems = plain_session.find_mems(query)

        if not (
            np.array_equal(cold_mems.array, warm_mems.array)
            and np.array_equal(cold_mems.array, plain_mems.array)
        ):
            raise AssertionError(
                "store warm-start changed the extracted MEMs "
                f"(|R|={n_bases}): refusing to report timings"
            )
        stats = store.stats()
        if stats["builds"] != 1:
            raise AssertionError(
                f"expected exactly one index build, saw {stats['builds']}"
            )
        return {
            "n_bases": n_bases,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "rebuild_seconds": rebuild_seconds,
            "warmstart_speedup": rebuild_seconds / max(warm_seconds, 1e-9),
            "warm_hits": stats["warm_hits"],
            "bytes_mmapped": stats["bytes_mmapped"],
            "n_mems": len(cold_mems),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def generate_series(div: int | None = None) -> str:
    from repro.bench.harness import BENCH_DIV

    # Cap the divisor so the smallest point keeps MIN_BASES; every point is
    # scaled by the same divisor, so the sizes stay distinct.
    div = min(BENCH_DIV if div is None else div, REFERENCE_BASES[0] // MIN_BASES)
    params = GpuMemParams(min_length=40)
    rows = []
    for n_bases in REFERENCE_BASES:
        out = run_warmstart_experiment(n_bases // div, params)
        rows.append(
            (
                out["n_bases"],
                round(out["cold_seconds"], 4),
                round(out["warm_seconds"], 4),
                round(out["rebuild_seconds"], 4),
                round(out["warmstart_speedup"], 2),
                out["warm_hits"],
                out["bytes_mmapped"],
                out["n_mems"],
            )
        )
    lines = [
        "== Index-store warm start: cold build+persist vs mmap reload "
        f"(L=40, ls={params.seed_length}, |Q|={QUERY_BASES:,}) =="
    ]
    lines.append(
        series_csv(
            ["n_bases", "cold_seconds", "warm_seconds",
             "rebuild_seconds", "warmstart_speedup", "warm_hits",
             "bytes_mmapped", "n_mems"],
            rows,
        )
    )
    last = rows[-1]
    lines.append(
        f"# warm start at |R|={last[0]:,}: {last[2]}s vs {last[3]}s rebuild "
        f"({last[4]}x; acceptance bar: warm well under rebuild)"
    )
    return "\n".join(lines) + "\n"


def bench_store_warmstart(benchmark):
    params = GpuMemParams(min_length=40)
    reference = _reference(50_000)
    cache_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        store = IndexStore(cache_dir)
        MemSession(reference, params, store=store).warm()  # populate

        def run():
            store.clear_hot()
            session = MemSession(reference, params, store=store)
            session.warm()
            return session

        benchmark(run)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    print(generate_series())
