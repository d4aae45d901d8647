"""Ablation: tile size (the memory-restriction knob, paper §III / Fig. 1).

Tiling exists so the partial index fits a memory-restricted device. Smaller
tiles mean a smaller resident index but more border-crossing MEMs routed
through the out-block/out-tile/host path. This sweep varies
``blocks_per_tile`` and reports the resident-index bound, the number of
out-tile fragments, and total time — all at identical output.

Only the simulated backend has out-tile fragments (the vectorized path
extends each MEM once from its leftmost sampled seed hit, so nothing
crosses a tile), and it runs one Python generator per GPU thread. The
fragment column therefore comes from a simulated run on the first
``SIM_SLICE`` bases of each sequence, whose MEM set is checked against
the vectorized one; the time and index-bytes columns are the vectorized
run on the whole pair.

Expected shape: index bytes scale with tile size; out-tile fragments grow
as tiles shrink; the MEM set never changes.
"""

from __future__ import annotations

from repro.bench.harness import BENCH_DIV
from repro.bench.harness import bench_pair as _bench_pair
from repro.bench.reporting import series_csv
from repro.core.matcher import GpuMem
from repro.core.params import GpuMemParams
from repro.sequence.datasets import EXPERIMENT_CONFIGS

CONFIG = EXPERIMENT_CONFIGS[3]  # chrXc/chrXh L=50

#: Bases of each sequence the simulated backend runs (~50 s for the sweep
#: on one core; smaller tiles cost the simulator more).
SIM_SLICE = 50_000


def bench_tiling_small_tiles(benchmark):
    reference, query = _bench_pair(CONFIG, div=BENCH_DIV * 2)
    params = GpuMemParams(
        min_length=CONFIG.min_length, seed_length=CONFIG.seed_length,
        blocks_per_tile=4,
    )
    benchmark(GpuMem(params).find_mems, reference, query)


def generate_series(div: int | None = None) -> str:
    reference, query = _bench_pair(CONFIG, div)
    rows = []
    reference_mems = None
    for blocks_per_tile in (2, 8, 32, 64, 128):
        params = GpuMemParams(
            min_length=CONFIG.min_length, seed_length=CONFIG.seed_length,
            blocks_per_tile=blocks_per_tile,
        )
        matcher = GpuMem(params)
        result = matcher.find_mems(reference, query)
        stats = matcher.stats
        if reference_mems is None:
            reference_mems = result
        assert result == reference_mems, f"tile={params.tile_size} changed the MEM set!"
        sim_ref, sim_query = reference[:SIM_SLICE], query[:SIM_SLICE]
        simulated = GpuMem(params.with_(backend="simulated"))
        assert simulated.find_mems(sim_ref, sim_query) == matcher.find_mems(
            sim_ref, sim_query
        ), f"tile={params.tile_size}: simulated and vectorized MEM sets differ"
        rows.append(
            (
                params.tile_size,
                stats["n_tiles"],
                stats["max_index_bytes"],
                simulated.stats["n_out_tile_fragments"],
                round(stats["total_time"], 4),
                len(result),
            )
        )
    lines = [
        "== Ablation: tile size sweep (chrXc/chrXh, L=50; "
        f"sim_out_tile_fragments on the first {SIM_SLICE} bases) =="
    ]
    lines.append(
        series_csv(
            ["tile_size", "n_tiles", "index_bytes", "sim_out_tile_fragments",
             "total_seconds", "n_mems"],
            rows,
        )
    )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(generate_series())
