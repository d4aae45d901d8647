"""Serving layer: sustained qps, admission-control shedding, drain cost.

``gpumem serve`` wraps :class:`repro.core.serve.MemServer` — a long-lived
front end over one warm reference with bounded concurrency
(``max_in_flight``) and bounded queueing (``admission_limit``). This
benchmark measures the three behaviors that matter for a server:

- **sustained throughput** — N requests pushed through the thread tier at
  a comfortable admission limit, reported as requests/sec against the
  same workload run as a plain serial loop (the server's scheduling
  overhead is the gap);
- **burst shedding** — the same N requests submitted as fast as possible
  against a deliberately tiny admission limit; reports how many were
  admitted vs shed with structured :class:`ServerOverloadedError`
  (never blocking, never deadlocking — the shed count is the
  backpressure signal a client retries on);
- **drain cost** — wall seconds ``close(drain=True)`` spends finishing
  the queue after the last submit.

Outputs of every admitted request are cross-checked against the serial
loop before timings are accepted. Standalone runs also write
``bench_results/BENCH_serve.json`` (the record ``benchmarks/run_all.py``
produces for CI diffing).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import series_csv
from repro.core.params import GpuMemParams
from repro.core.serve import MemServer
from repro.core.session import MemSession
from repro.errors import ServerOverloadedError
from repro.sequence.synthetic import markov_dna

#: Reference size (bases), per-request size, and request count.
REFERENCE_BASES = 200_000
QUERY_BASES = 1_500
N_REQUESTS = 48

#: Serving knobs for the sustained-throughput pass.
WORKERS = 4
ADMISSION_LIMIT = 2 * N_REQUESTS  # no shedding in the throughput pass

#: Deliberately tiny queue for the burst pass.
BURST_ADMISSION_LIMIT = 4


def _workload(rng_seed: int = 47):
    reference = markov_dna(REFERENCE_BASES, seed=rng_seed)
    rng = np.random.default_rng(rng_seed + 1)
    requests = []
    for _ in range(N_REQUESTS):
        at = int(rng.integers(0, reference.size - QUERY_BASES))
        read = reference[at : at + QUERY_BASES].copy()
        flips = rng.integers(0, read.size, read.size // 100)
        read[flips] = (read[flips] + rng.integers(1, 4, flips.size)) % 4
        requests.append(read)
    return reference, requests


def run_serve_experiment(reference, requests, params) -> dict:
    """Time the serial loop, the served pass, and the burst pass."""
    session = MemSession(reference, params)
    session.warm()
    t0 = time.perf_counter()
    serial = [session.find_mems(q).as_tuples() for q in requests]
    serial_seconds = time.perf_counter() - t0

    # sustained throughput: everything admitted, everything completes
    with MemServer(
        session, workers=WORKERS, admission_limit=ADMISSION_LIMIT
    ) as server:
        t0 = time.perf_counter()
        futures = [server.submit(q) for q in requests]
        results = [f.result() for f in futures]
        served_seconds = time.perf_counter() - t0
        stats = server.stats()
    served = [r.value.as_tuples() for r in results]
    if served != serial:  # timing is meaningless on wrong output
        raise AssertionError("served output diverged from the serial loop")

    # burst: submit as fast as possible into a tiny queue; count sheds
    with MemServer(
        session, workers=WORKERS, admission_limit=BURST_ADMISSION_LIMIT
    ) as server:
        admitted = []
        n_shed = 0
        t0 = time.perf_counter()
        for q in requests:
            try:
                admitted.append(server.submit(q))
            except ServerOverloadedError:
                n_shed += 1
        for f in admitted:
            f.result()
        t_drain = time.perf_counter()
        final = server.close()
        drain_seconds = time.perf_counter() - t_drain
    burst = {
        "n_admitted": len(admitted),
        "n_shed": n_shed,
        "admission_limit": BURST_ADMISSION_LIMIT,
        "drain_seconds": drain_seconds,
        "server_counts": {k: final[k] for k in ("completed", "shed", "cancelled")},
    }

    return {
        "serial_seconds": serial_seconds,
        "serial_rps": len(requests) / serial_seconds,
        "served_seconds": served_seconds,
        "served_rps": len(requests) / served_seconds,
        "speedup": serial_seconds / served_seconds,
        "queue_stats": {k: stats[k] for k in ("submitted", "completed", "shed")},
        "burst": burst,
        "n_requests": len(requests),
        "cpu_count": os.cpu_count(),
    }


def generate_series(div: int | None = None) -> str:
    reference, requests = _workload()
    params = GpuMemParams(min_length=40)
    out = run_serve_experiment(reference, requests, params)
    lines = [
        "== Serving: MemServer thread tier vs serial loop "
        f"(|R|={reference.size:,}, |Q|={QUERY_BASES:,}, "
        f"N={out['n_requests']}, workers={WORKERS}, "
        f"cpus={out['cpu_count']}) =="
    ]
    lines.append(
        f"serial loop: {out['serial_seconds']:.4f}s "
        f"({out['serial_rps']:.2f} req/s)"
    )
    lines.append(
        series_csv(
            ["mode", "seconds", "rps", "speedup_vs_serial"],
            [
                (
                    "served",
                    round(out["served_seconds"], 4),
                    round(out["served_rps"], 2),
                    round(out["speedup"], 2),
                ),
            ],
        )
    )
    burst = out["burst"]
    lines.append(
        f"burst vs admission_limit={burst['admission_limit']}: "
        f"{burst['n_admitted']} admitted, {burst['n_shed']} shed "
        f"(structured, non-blocking), drain {burst['drain_seconds']:.4f}s"
    )
    lines.append(
        "# served rps approaches the thread-tier batch qps on >= 4 cores; "
        "the gap to serial on single-core runs is pure scheduling overhead"
    )
    return "\n".join(lines) + "\n"


def bench_serve_throughput(benchmark):
    reference, requests = _workload()
    params = GpuMemParams(min_length=40)
    session = MemSession(reference, params)
    session.warm()

    def run():
        with MemServer(
            session, workers=WORKERS, admission_limit=ADMISSION_LIMIT
        ) as server:
            return [server.submit(q) for q in requests[:8]]

    benchmark(run)


def _write_standalone_json(text: str, seconds: float) -> Path:
    """Mirror run_all.py's BENCH_<name>.json record for standalone runs."""
    out_dir = Path(__file__).resolve().parents[1] / "bench_results"
    out_dir.mkdir(exist_ok=True)
    from repro.bench.harness import environment_info

    record = {
        "name": "serve",
        "seconds": round(seconds, 6),
        "div": None,
        "git_revision": None,
        "environment": environment_info(),
        "text": text,
    }
    path = out_dir / "BENCH_serve.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    t0 = time.perf_counter()
    series = generate_series()
    took = time.perf_counter() - t0
    print(series)
    print(f"[wrote {_write_standalone_json(series, took)}]")
