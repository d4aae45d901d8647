"""Lock tracker overhead: batch throughput with the tracker off vs on.

The runtime lock-order sanitizer (docs/analysis.md) is meant to run in CI
and under tests, so its cost on a real threaded workload must stay small
— the budget is **<= 10% throughput overhead** on the batch workload with
the tracker installed in raise mode with blocking probes (the exact
configuration of CI's ``tests-locktracker`` leg). This benchmark times
the same warm-session BatchRunner workload as ``bench_batch_throughput``
twice — plain locks vs ``LockTracker``-issued locks — cross-checks the
outputs, and reports the per-configuration throughput, the overhead
ratio, and the tracker's own ``lock.*`` contention series.

Standalone runs also write ``bench_results/BENCH_lock_contention.json``
(the record ``benchmarks/run_all.py`` produces for CI diffing).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.lock_tracker import LockTracker
from repro.bench.reporting import series_csv
from repro.core.batch import BatchRunner
from repro.core.params import GpuMemParams
from repro.core.session import MemSession
from repro.sequence.synthetic import markov_dna, plant_repeats

#: Reference size (bases) and per-query size for the workload.
REFERENCE_BASES = 200_000
QUERY_BASES = 2_000

#: Queries per batch, pool width, and timing repetitions per configuration.
N_QUERIES = 24
WORKERS = 4
REPEATS = 3

#: Acceptance budget: tracked throughput must stay within 10% of plain.
OVERHEAD_BUDGET = 0.10


def _workload(rng_seed: int = 47):
    reference = plant_repeats(
        markov_dna(REFERENCE_BASES, seed=rng_seed),
        seed=rng_seed + 1,
        n_families=4,
        family_length=(60, 200),
        copies_per_family=(10, 40),
        copy_divergence=0.03,
    )
    rng = np.random.default_rng(rng_seed + 2)
    queries = []
    for _ in range(N_QUERIES):
        at = int(rng.integers(0, reference.size - QUERY_BASES))
        read = reference[at : at + QUERY_BASES].copy()
        flips = rng.integers(0, read.size, read.size // 100)
        read[flips] = (read[flips] + rng.integers(1, 4, flips.size)) % 4
        queries.append(read)
    return reference, queries


def _time_batch(reference, queries, params, lock_factory=None):
    """Best-of-REPEATS batch wall time on a warm session; returns tuples."""
    session = MemSession(reference, params, lock_factory=lock_factory)
    session.warm()
    runner = BatchRunner(session, workers=WORKERS)
    best = float("inf")
    outputs = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        results = list(runner.run(queries))
        seconds = time.perf_counter() - t0
        best = min(best, seconds)
        outputs = [r.value.as_tuples() for r in results]
    return best, outputs


def run_lock_contention_experiment(reference, queries, params) -> dict:
    """Tracker-off vs tracker-on timings plus the tracker's lock.* series."""
    plain_seconds, plain_out = _time_batch(reference, queries, params)

    tracker = LockTracker(mode="raise")
    tracker.install_blocking_probes()
    try:
        tracked_seconds, tracked_out = _time_batch(
            reference, queries, params, lock_factory=tracker.lock
        )
    finally:
        tracker.remove_blocking_probes()
    if tracked_out != plain_out:  # timing is meaningless on wrong output
        raise AssertionError("tracked run's output diverged from plain run")
    if tracker.findings:
        raise AssertionError(
            "lock tracker flagged the shipped batch engine:\n"
            + tracker.format_findings()
        )

    lock_series = {
        name: inst for name, inst in tracker.metrics.to_dict().items()
        if name.startswith("lock.")
    }
    return {
        "plain_seconds": plain_seconds,
        "tracked_seconds": tracked_seconds,
        "plain_qps": len(queries) / plain_seconds,
        "tracked_qps": len(queries) / tracked_seconds,
        "overhead": tracked_seconds / plain_seconds - 1.0,
        "n_queries": len(queries),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "lock_series": lock_series,
    }


def generate_series(div: int | None = None) -> str:
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    out = run_lock_contention_experiment(reference, queries, params)
    rows = [
        ("off", round(out["plain_seconds"], 4), round(out["plain_qps"], 2)),
        ("on", round(out["tracked_seconds"], 4), round(out["tracked_qps"], 2)),
    ]
    lines = [
        "== Lock tracker overhead: BatchRunner throughput, tracker off vs on "
        f"(|R|={reference.size:,}, |Q|={QUERY_BASES:,}, N={out['n_queries']}, "
        f"workers={out['workers']}, cpus={out['cpu_count']}) =="
    ]
    lines.append(series_csv(["lock_tracker", "seconds", "qps"], rows))
    contended = sum(
        inst["value"] for name, inst in out["lock_series"].items()
        if name.startswith("lock.contended")
    )
    acquisitions = sum(
        inst["value"] for name, inst in out["lock_series"].items()
        if name.startswith("lock.acquisitions")
    )
    lines.append(
        f"# tracked: {acquisitions:.0f} acquisitions, {contended:.0f} "
        "contended, 0 findings"
    )
    verdict = "PASS" if out["overhead"] <= OVERHEAD_BUDGET else "EXCEEDED"
    lines.append(
        f"# overhead: {out['overhead'] * 100:+.1f}% vs budget "
        f"<= {OVERHEAD_BUDGET * 100:.0f}%: {verdict} (best-of-{REPEATS} "
        "timings; loaded runners can still exceed the budget spuriously)"
    )
    return "\n".join(lines) + "\n"


def bench_lock_contention_tracked(benchmark):
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    tracker = LockTracker(mode="raise")
    session = MemSession(reference, params, lock_factory=tracker.lock)
    session.warm()
    runner = BatchRunner(session, workers=WORKERS)

    def run():
        return list(runner.run(queries[:8]))

    benchmark(run)


def _write_standalone_json(text: str, seconds: float) -> Path:
    """Mirror run_all.py's BENCH_<name>.json record for standalone runs."""
    out_dir = Path(__file__).resolve().parents[1] / "bench_results"
    out_dir.mkdir(exist_ok=True)
    from repro.bench.harness import environment_info

    record = {
        "name": "lock_contention",
        "seconds": round(seconds, 6),
        "div": None,
        "git_revision": None,
        "environment": environment_info(),
        "text": text,
    }
    path = out_dir / "BENCH_lock_contention.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    t0 = time.perf_counter()
    series = generate_series()
    took = time.perf_counter() - t0
    print(series)
    print(f"[wrote {_write_standalone_json(series, took)}]")
