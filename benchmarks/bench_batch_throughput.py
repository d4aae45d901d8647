"""Batched throughput: serial find_mems loop vs BatchRunner worker sweep.

The batched engine's claim is queries/sec: a warm
:class:`repro.core.session.MemSession` serves every query at match-only
cost, and :class:`repro.core.batch.BatchRunner` overlaps those match
stages across a query-level thread pool (the hot kernels release the
GIL). This benchmark times one read-mapping-shaped workload — N mutated
reads against one fixed reference — as a serial loop and through the
runner at 1/2/4 workers in both tiers: ``thread`` (GIL-released kernels
overlapped in-process) and ``process`` (whole queries shipped to spawned
workers that attach the shared 2-bit reference and serve from warm
per-process sessions). Bars: thread ≥ 2x and process ≥ 2.5x qps at 4
workers, both on hardware with ≥ 4 cores; the recorded ``cpu_count``
keeps single-core CI runs interpretable. The process sweep takes an
untimed warm pass first (spawn + per-worker index warm), so the timed
pass measures match-only cost like the other paths.

Outputs are cross-checked identical between the serial loop and every
batched run — thread and process tiers alike — before any timing is
accepted. Standalone runs also write
``bench_results/BENCH_batch_throughput.json`` (the same record
``benchmarks/run_all.py`` produces for CI diffing).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import series_csv
from repro.core.batch import BatchRunner
from repro.core.params import GpuMemParams
from repro.core.session import MemSession
from repro.sequence.synthetic import markov_dna, plant_repeats

#: Reference size (bases) and per-query size for the workload.
REFERENCE_BASES = 300_000
QUERY_BASES = 2_000

#: Queries per batch and the worker widths swept (4 is the acceptance point).
N_QUERIES = 32
WORKER_SWEEP = (1, 2, 4)

#: The obs-overhead experiment uses read-mapper-scale queries: shipping
#: cost is a fixed few-hundred-µs per task (capture + pickle + merge), so
#: the honest overhead number comes from tasks with representative compute,
#: not the micro-queries the throughput sweep uses to stress scheduling.
OBS_N_QUERIES = 12
OBS_QUERY_BASES = 48_000


def _workload(rng_seed: int = 43, n_queries: int = N_QUERIES,
              query_bases: int = QUERY_BASES):
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
    for _ in range(n_queries):
        at = int(rng.integers(0, reference.size - query_bases))
        read = reference[at : at + query_bases].copy()
        flips = rng.integers(0, read.size, read.size // 100)
        read[flips] = (read[flips] + rng.integers(1, 4, flips.size)) % 4
        queries.append(read)
    return reference, queries


def run_batch_throughput_experiment(reference, queries, params) -> dict:
    """Time the serial loop and both tier sweeps; cross-check outputs."""
    session = MemSession(reference, params)
    session.warm()  # both paths measured at match-only cost
    t0 = time.perf_counter()
    serial = [session.find_mems(q).as_tuples() for q in queries]
    serial_seconds = time.perf_counter() - t0

    def timed_sweep(tier: str) -> list[dict]:
        sweep = []
        for workers in WORKER_SWEEP:
            if tier == "thread":
                runner = BatchRunner(session, workers=workers)
            else:
                runner = BatchRunner(
                    reference, params, tier="process", workers=workers
                )
                # warm pass: spawn this pool's workers and warm their
                # per-process sessions so timing sees match-only cost,
                # symmetric with the warmed thread/serial paths
                list(runner.run(queries))
            t0 = time.perf_counter()
            results = list(runner.run(queries))
            seconds = time.perf_counter() - t0
            batched = [r.value.as_tuples() for r in results]
            if batched != serial:  # timing is meaningless on wrong output
                raise AssertionError(
                    f"{tier} output diverged from serial at workers={workers}"
                )
            sweep.append({
                "workers": workers,
                "seconds": seconds,
                "qps": len(queries) / seconds,
                "speedup": serial_seconds / seconds,
            })
        return sweep

    return {
        "serial_seconds": serial_seconds,
        "serial_qps": len(queries) / serial_seconds,
        "n_queries": len(queries),
        "n_mems": sum(len(m) for m in serial),
        "cpu_count": os.cpu_count(),
        "sweep": timed_sweep("thread"),
        "process_sweep": timed_sweep("process"),
    }


def generate_series(div: int | None = None) -> str:
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    out = run_batch_throughput_experiment(reference, queries, params)
    def rows_of(sweep, tier):
        return [
            (
                tier,
                entry["workers"],
                round(entry["seconds"], 4),
                round(entry["qps"], 2),
                round(entry["speedup"], 2),
            )
            for entry in sweep
        ]

    rows = rows_of(out["sweep"], "thread") + rows_of(
        out["process_sweep"], "process"
    )
    lines = [
        "== Batch throughput: serial find_mems loop vs BatchRunner tiers "
        f"(|R|={reference.size:,}, |Q|={QUERY_BASES:,}, "
        f"N={out['n_queries']}, L=40, cpus={out['cpu_count']}) =="
    ]
    lines.append(
        f"serial loop: {out['serial_seconds']:.4f}s "
        f"({out['serial_qps']:.2f} q/s, {out['n_mems']} MEMs)"
    )
    lines.append(
        series_csv(
            ["tier", "batch_workers", "seconds", "qps", "speedup_vs_serial"],
            rows,
        )
    )
    thread4 = out["sweep"][-1]["speedup"]
    proc4 = out["process_sweep"][-1]["speedup"]
    lines.append(
        f"# speedup at 4 workers: thread {thread4:.2f}x (bar: >= 2x), "
        f"process {proc4:.2f}x (bar: >= 2.5x) — both bars assume >= 4 "
        "cores; parallel overlap needs real cores, so single-core runs "
        "report ~1x"
    )
    return "\n".join(lines) + "\n"


def run_obs_overhead_experiment(
    reference, queries, params, *, workers: int = 2, repeats: int = 9
) -> dict:
    """Process-tier qps with observability off vs on (budget: <= 5%).

    "On" means a live parent :class:`~repro.obs.Tracer`: every worker task
    then records spans + metrics process-locally and ships an
    :class:`~repro.obs.shipping.ObsPayload` home with its result. The
    overhead measured here is therefore the full cross-process shipping
    path — capture, pickle, merge — not just in-process span bookkeeping.
    Both runners are warmed untimed (spawn + per-worker session warm),
    then the timed passes *interleave* the two modes: each repeat times
    one off pass and one on pass back to back and contributes one on/off
    ratio, and the reported overhead is the *median* of those paired
    ratios — back-to-back pairing cancels slow machine drift, the median
    discards the scheduler-hiccup outliers that dominate min-of-mins on
    shared single-core CI runners.
    """
    from repro.obs import Tracer

    tracer = Tracer()
    runner_off = BatchRunner(
        reference, params, tier="process", workers=workers
    )
    runner_on = BatchRunner(
        reference, params, tier="process", workers=workers, tracer=tracer
    )
    # Untimed warm passes: spawn the shared pool once, warm each mode's
    # per-worker sessions (the session cache keys on ship_obs).
    list(runner_off.run(queries))
    list(runner_on.run(queries))

    def timed(runner) -> float:
        t0 = time.perf_counter()
        results = list(runner.run(queries))
        seconds = time.perf_counter() - t0
        assert all(r.ok for r in results)
        return seconds

    off_times, on_times = [], []
    for _ in range(repeats):
        off_times.append(timed(runner_off))
        on_times.append(timed(runner_on))
    ratios = sorted(on / off for off, on in zip(off_times, on_times))
    median_ratio = ratios[len(ratios) // 2]
    off, on = min(off_times), min(on_times)
    shipped = tracer.metrics.to_dict()
    return {
        "workers": workers,
        "repeats": repeats,
        "n_queries": len(queries),
        "obs_off_seconds": off,
        "obs_on_seconds": on,
        "obs_off_qps": len(queries) / off,
        "obs_on_qps": len(queries) / on,
        "overhead_fraction": median_ratio - 1.0,
        "payloads_shipped": shipped.get("proc.obs.payloads", {}).get("value", 0),
        "spans_shipped": shipped.get("proc.obs.spans", {}).get("value", 0),
        "cpu_count": os.cpu_count(),
    }


def generate_obs_overhead_series(div: int | None = None) -> str:
    reference, queries = _workload(
        n_queries=OBS_N_QUERIES, query_bases=OBS_QUERY_BASES
    )
    params = GpuMemParams(min_length=40)
    out = run_obs_overhead_experiment(reference, queries, params)
    lines = [
        "== Observability overhead: process tier, obs off vs on "
        f"(|R|={reference.size:,}, |Q|={OBS_QUERY_BASES:,}, "
        f"N={out['n_queries']}, workers={out['workers']}, "
        f"median of {out['repeats']} paired ratios, "
        f"cpus={out['cpu_count']}) =="
    ]
    lines.append(
        series_csv(
            ["mode", "seconds", "qps"],
            [
                ("obs_off", round(out["obs_off_seconds"], 4),
                 round(out["obs_off_qps"], 2)),
                ("obs_on", round(out["obs_on_seconds"], 4),
                 round(out["obs_on_qps"], 2)),
            ],
        )
    )
    lines.append(
        f"# shipped: {out['payloads_shipped']} payloads, "
        f"{out['spans_shipped']} spans"
    )
    lines.append(
        f"# overhead: {out['overhead_fraction'] * 100:+.2f}% "
        "(budget: <= 5%; spans + metric deltas ride the existing result "
        "pickle, so the marginal IPC cost is a few KiB per task)"
    )
    return "\n".join(lines) + "\n"


def bench_batch_throughput_4(benchmark):
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    session = MemSession(reference, params)
    session.warm()
    runner = BatchRunner(session, workers=4)

    def run():
        return list(runner.run(queries[:8]))

    benchmark(run)


def _write_standalone_json(
    text: str, seconds: float, name: str = "batch_throughput"
) -> Path:
    """Mirror run_all.py's BENCH_<name>.json record for standalone runs."""
    out_dir = Path(__file__).resolve().parents[1] / "bench_results"
    out_dir.mkdir(exist_ok=True)
    from repro.bench.harness import environment_info

    record = {
        "name": name,
        "seconds": round(seconds, 6),
        "div": None,
        "git_revision": None,
        "environment": environment_info(),
        "text": text,
    }
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    for name, generate in (
        ("batch_throughput", generate_series),
        ("obs_overhead", generate_obs_overhead_series),
    ):
        t0 = time.perf_counter()
        series = generate()
        took = time.perf_counter() - t0
        print(series)
        print(f"[wrote {_write_standalone_json(series, took, name)}]")
