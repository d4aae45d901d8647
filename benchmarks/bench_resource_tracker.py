"""Resource tracker overhead: batch throughput with the tracker off vs on.

The runtime resource-lifecycle tracker (docs/analysis.md) is meant to run
under CI's ``tests-resource`` leg and the ``resource_tracker`` fixture,
so its cost on a real workload must stay small — the budget is **<= 5%
throughput overhead** on the batch workload with a raise-mode tracker
installed process-wide. The tracker only instruments IPC seams
(shared-memory publish/attach, store mmap opens, file locks), so the
batch number mostly prices the hook seams' ``active_tracker()`` check;
an IPC-lifecycle loop (publish → attach → close → unlink through
:class:`repro.sequence.packed.PackedSequence`) prices the hot case where
every operation actually hits the tracker's table.

Standalone runs also write ``bench_results/BENCH_resource_tracker.json``
(the record ``benchmarks/run_all.py`` produces for CI diffing).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis import resource_tracker as rt
from repro.analysis.resource_tracker import ResourceTracker
from repro.bench.reporting import series_csv
from repro.core.batch import BatchRunner
from repro.core.params import GpuMemParams
from repro.core.session import MemSession
from repro.sequence.packed import PackedSequence
from repro.sequence.synthetic import markov_dna, plant_repeats

#: Reference size (bases) and per-query size for the batch workload.
REFERENCE_BASES = 200_000
QUERY_BASES = 2_000

#: Queries per batch, pool width, and timing repetitions per configuration.
N_QUERIES = 24
WORKERS = 4
REPEATS = 3

#: Shared-memory publish/attach/close/unlink cycles per IPC timing.
IPC_CYCLES = 200

#: Acceptance budget: tracked throughput must stay within 5% of plain.
OVERHEAD_BUDGET = 0.05


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


def _time_batch(reference, queries, params):
    """Best-of-REPEATS batch wall time on a warm session; returns tuples."""
    session = MemSession(reference, params)
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


def _time_ipc_cycles(reference) -> float:
    """Best-of-REPEATS seconds for IPC_CYCLES full shm lifecycles."""
    # a 4096-base sequence: big enough for a real segment, small enough
    # that per-cycle cost is dominated by the lifecycle, not the copy
    seq = PackedSequence(reference[:4096].astype(np.uint8))
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(IPC_CYCLES):
            handle = seq.to_shared()
            attached = PackedSequence.from_shared(handle)
            attached.close_shared(materialize=False)
            seq.unlink_shared()
        best = min(best, time.perf_counter() - t0)
    return best


def run_resource_tracker_experiment(reference, queries, params) -> dict:
    """Tracker-off vs tracker-on timings plus the tracker's res.* series."""
    prev = rt.active_tracker()
    rt.uninstall()
    try:
        plain_seconds, plain_out = _time_batch(reference, queries, params)
        plain_ipc = _time_ipc_cycles(reference)

        tracker = ResourceTracker(mode="raise")
        rt.install(tracker)
        try:
            tracked_seconds, tracked_out = _time_batch(
                reference, queries, params
            )
            tracked_ipc = _time_ipc_cycles(reference)
        finally:
            rt.uninstall()
    finally:
        if prev is not None:
            rt.install(prev)
    if tracked_out != plain_out:  # timing is meaningless on wrong output
        raise AssertionError("tracked run's output diverged from plain run")
    if tracker.findings:
        raise AssertionError(
            "resource tracker flagged the shipped batch engine:\n"
            + tracker.format_findings()
        )
    leaked = tracker.leaks()
    if leaked:
        raise AssertionError(
            "resource tracker audit found leaks in the benchmark workload:\n"
            + "\n".join(r.format() for r in leaked)
        )

    res_series = {
        name: inst for name, inst in tracker.metrics.to_dict().items()
        if name.startswith("res.")
    }
    return {
        "plain_seconds": plain_seconds,
        "tracked_seconds": tracked_seconds,
        "plain_qps": len(queries) / plain_seconds,
        "tracked_qps": len(queries) / tracked_seconds,
        "overhead": tracked_seconds / plain_seconds - 1.0,
        "plain_ipc_seconds": plain_ipc,
        "tracked_ipc_seconds": tracked_ipc,
        "ipc_cycles": IPC_CYCLES,
        "n_queries": len(queries),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "res_series": res_series,
    }


def generate_series(div: int | None = None) -> str:
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    out = run_resource_tracker_experiment(reference, queries, params)
    rows = [
        ("off", round(out["plain_seconds"], 4), round(out["plain_qps"], 2),
         round(out["plain_ipc_seconds"] * 1e6 / out["ipc_cycles"], 2)),
        ("on", round(out["tracked_seconds"], 4), round(out["tracked_qps"], 2),
         round(out["tracked_ipc_seconds"] * 1e6 / out["ipc_cycles"], 2)),
    ]
    lines = [
        "== Resource tracker overhead: BatchRunner throughput + shm "
        f"lifecycle, tracker off vs on (|R|={reference.size:,}, "
        f"|Q|={QUERY_BASES:,}, N={out['n_queries']}, "
        f"workers={out['workers']}, cpus={out['cpu_count']}) =="
    ]
    lines.append(series_csv(
        ["resource_tracker", "seconds", "qps", "ipc_us_per_cycle"], rows
    ))
    created = out["res_series"].get("res.shm.created", {}).get("value", 0)
    unlinked = out["res_series"].get("res.shm.unlinked", {}).get("value", 0)
    lines.append(
        f"# tracked: {created:.0f} segments created, {unlinked:.0f} "
        "unlinked, 0 findings, 0 leaks"
    )
    verdict = "PASS" if out["overhead"] <= OVERHEAD_BUDGET else "EXCEEDED"
    lines.append(
        f"# overhead: {out['overhead'] * 100:+.1f}% vs budget "
        f"<= {OVERHEAD_BUDGET * 100:.0f}%: {verdict} (best-of-{REPEATS} "
        "timings; loaded runners can still exceed the budget spuriously)"
    )
    return "\n".join(lines) + "\n"


def bench_resource_tracker_on(benchmark):
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    tracker = ResourceTracker(mode="raise")
    rt.install(tracker)
    session = MemSession(reference, params)
    session.warm()
    runner = BatchRunner(session, workers=WORKERS)

    def run():
        return list(runner.run(queries[:8]))

    try:
        benchmark(run)
    finally:
        rt.uninstall()


def _write_standalone_json(text: str, seconds: float) -> Path:
    """Mirror run_all.py's BENCH_<name>.json record for standalone runs."""
    out_dir = Path(__file__).resolve().parents[1] / "bench_results"
    out_dir.mkdir(exist_ok=True)
    from repro.bench.harness import environment_info

    record = {
        "name": "resource_tracker",
        "seconds": round(seconds, 6),
        "div": None,
        "git_revision": None,
        "environment": environment_info(),
        "text": text,
    }
    path = out_dir / "BENCH_resource_tracker.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    t0 = time.perf_counter()
    series = generate_series()
    took = time.perf_counter() - t0
    print(series)
    print(f"[wrote {_write_standalone_json(series, took)}]")
