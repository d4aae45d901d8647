"""Many-query amortization: throwaway matchers vs. a reusable MemSession.

The seed behaviour rebuilt every per-row seed index on every ``find_mems``
call; a :class:`repro.core.session.MemSession` builds them once per
reference and serves every later query at match-only cost. This benchmark
times a read-mapping-shaped workload — N short queries against one fixed
reference — both ways and reports the amortized speedup (the acceptance bar
for the staged-pipeline PR is ≥ 2× at N = 16).

Outputs are cross-checked identical inside
:func:`repro.bench.harness.run_session_reuse_experiment` before any timing
is accepted.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import run_session_reuse_experiment
from repro.bench.reporting import series_csv
from repro.core.params import GpuMemParams
from repro.sequence.synthetic import markov_dna, plant_repeats

#: Reference size (bases) and per-query size for the workload.
REFERENCE_BASES = 400_000
QUERY_BASES = 2_000

#: Workload sizes swept; 16 is the acceptance-criterion point.
N_QUERIES = (1, 4, 16)


def _workload(rng_seed: int = 41):
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
    for _ in range(max(N_QUERIES)):
        at = int(rng.integers(0, reference.size - QUERY_BASES))
        read = reference[at : at + QUERY_BASES].copy()
        flips = rng.integers(0, read.size, read.size // 100)
        read[flips] = (read[flips] + rng.integers(1, 4, flips.size)) % 4
        queries.append(read)
    return reference, queries


def generate_series(div: int | None = None) -> str:
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    rows = []
    for n in N_QUERIES:
        out = run_session_reuse_experiment(reference, queries[:n], params)
        rows.append(
            (
                n,
                round(out["per_call_seconds"], 4),
                round(out["session_seconds"], 4),
                round(out["per_call_qps"], 2),
                round(out["session_qps"], 2),
                round(out["speedup"], 2),
                out["n_mems"],
            )
        )
    lines = [
        "== Session reuse: per-call matchers vs one warm MemSession "
        f"(|R|={reference.size:,}, |Q|={QUERY_BASES:,}, L=40) =="
    ]
    lines.append(
        series_csv(
            ["n_queries", "per_call_seconds", "session_seconds",
             "per_call_qps", "session_qps", "amortized_speedup", "n_mems"],
            rows,
        )
    )
    final_speedup = rows[-1][5]
    lines.append(
        f"# amortized speedup at n={N_QUERIES[-1]}: {final_speedup}x "
        f"(acceptance bar: >= 2x)"
    )
    return "\n".join(lines) + "\n"


def bench_session_reuse_16(benchmark):
    reference, queries = _workload()
    params = GpuMemParams(min_length=40)
    from repro.core.session import MemSession

    def run():
        session = MemSession(reference, params)
        return session.find_mems_batch(queries[:4])

    benchmark(run)


if __name__ == "__main__":
    print(generate_series())
