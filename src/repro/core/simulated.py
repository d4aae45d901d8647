"""The simulated-GPU GPUMEM driver.

Runs the published pipeline end to end on the SIMT simulator of
:mod:`repro.gpu`: Algorithm 1 index kernels per tile row, the block kernel
(Algorithms 2 & 3 + expansion) per tile, the tile combine, and the host
merge. Returns the MEM set plus a statistics dictionary containing the
simulated device timings that drive the Fig. 7 experiment.

This backend executes one Python generator per simulated thread — use it on
test-scale inputs (up to ~10^5 bases); the vectorized backend covers the
rest and is tested equal.
"""

from __future__ import annotations

import numpy as np

from repro.core.block_stage import BlockTask, block_kernel
from repro.core.host_merge import host_merge
from repro.core.params import GpuMemParams
from repro.core.seed_index import build_kmer_index_gpu
from repro.core.tile_stage import tile_combine
from repro.core.tiling import TilePlan
from repro.gpu.device import TESLA_K20C, DeviceSpec
from repro.gpu.kernel import Device
from repro.obs.tracer import Tracer, get_tracer
from repro.types import concat_triplets, triplets_from_tuples, unique_mems

#: Bytes per transferred triplet: three 64-bit fields (the paper packs
#: tighter; the constant only scales the modeled copy time).
TRIPLET_BYTES = 24


def _charge_transfer(dev: Device, name: str, n_triplets: int) -> None:
    """Record a device→host result copy in the device's report stream.

    §III-B4/§III-C: in-block and in-tile MEMs are moved to the host for
    reporting as they are produced; the out-tile list is transferred once at
    the end. Copies are charged at the device's PCIe bandwidth.
    """
    from repro.gpu.kernel import KernelReport

    seconds = (n_triplets * TRIPLET_BYTES) / dev.spec.pcie_bytes_per_second
    nbytes = n_triplets * TRIPLET_BYTES
    with dev.tracer.span(
        name, cat="memory", nbytes=nbytes, sim_seconds=seconds
    ):
        dev.reports.append(
            KernelReport(
                name=name,
                grid=0,
                block=0,
                n_phases=0,
                warp_max_ops=0.0,
                total_thread_ops=0.0,
                block_cycles=[],
                imbalance=0.0,
                sim_cycles=seconds * dev.spec.clock_hz,
                sim_seconds=seconds,
            )
        )
    metrics = dev.tracer.metrics
    if metrics.enabled:
        metrics.counter("memcpy.transfers", kind=name).inc()
        metrics.counter("memcpy.bytes", kind=name).inc(nbytes)


def simulated_find_mems(
    reference: np.ndarray,
    query: np.ndarray,
    params: GpuMemParams,
    *,
    device: Device | None = None,
    spec: DeviceSpec = TESLA_K20C,
    tracer: Tracer | None = None,
) -> tuple[np.ndarray, dict]:
    """Full simulated run; returns ``(mem_triplets, stats)``.

    ``tracer`` records the four stage spans with the per-launch kernel and
    transfer spans nested inside them (the device adopts the tracer when it
    does not already carry one), each annotated with the simulator's
    ``KernelReport`` sim-time.
    """
    tracer = get_tracer(tracer)
    dev = device if device is not None else Device(spec, tracer=tracer)
    if tracer.enabled and not dev.tracer.enabled:
        dev.tracer = tracer
        dev.memory.tracer = tracer
    p = params

    run_span = tracer.span(
        "pipeline.run", cat="pipeline", backend="simulated",
        device=dev.spec.name, n_reference=int(reference.size),
        n_query=int(query.size),
    )
    with run_span:
        with tracer.span("stage:prep", cat="pipeline"):
            reference = np.ascontiguousarray(reference, dtype=np.uint8)
            query = np.ascontiguousarray(query, dtype=np.uint8)
            plan = TilePlan(
                n_reference=reference.size, n_query=query.size,
                tile_size=p.tile_size,
            )

        in_parts: list[np.ndarray] = []
        out_tile_parts: list[np.ndarray] = []
        index_seconds = 0.0
        index_cycles = 0.0

        for row in range(plan.n_rows):
            r0, r1 = plan.row_range(row)
            mark = len(dev.reports)
            with tracer.span("stage:row_index", cat="pipeline", row=row) as sp:
                index = build_kmer_index_gpu(
                    dev,
                    reference,
                    seed_length=p.seed_length,
                    step=p.step,
                    region_start=r0,
                    region_end=r1,
                    block=p.threads_per_block,
                )
                row_index_seconds = sum(
                    r.sim_seconds for r in dev.reports[mark:]
                )
                sp.set(sim_seconds=row_index_seconds, n_locs=index.n_locs)
            index_seconds += row_index_seconds
            index_cycles += sum(r.sim_cycles for r in dev.reports[mark:])

            with tracer.span("stage:tile_match", cat="pipeline", row=row):
                for tile in plan.tiles_in_row(row):
                    task = BlockTask(
                        reference=reference,
                        query=query,
                        ptrs=index.ptrs,
                        locs=index.locs,
                        seed_length=p.seed_length,
                        w=p.work_per_thread,
                        min_length=p.min_length,
                        r_lo=tile.r_start,
                        r_hi=tile.r_end,
                        q_lo=tile.q_start,
                        q_hi=tile.q_end,
                        block_width=p.block_width,
                        balancing=p.load_balancing,
                    )
                    dev.launch(
                        block_kernel,
                        task.n_blocks,
                        p.threads_per_block,
                        task,
                        name="match:block",
                    )
                    in_block = triplets_from_tuples(
                        [t for lst in task.in_block.values() for t in lst]
                    )
                    if in_block.size:
                        in_parts.append(unique_mems(in_block))
                        _charge_transfer(
                            dev, "memcpy:in-block", int(in_block.size)
                        )
                    out_block = triplets_from_tuples(
                        [t for lst in task.out_block.values() for t in lst]
                    )
                    in_tile, out_tile = tile_combine(
                        reference, query, tile, out_block, p.min_length,
                        device=dev,
                    )
                    if in_tile.size:
                        in_parts.append(in_tile)
                        _charge_transfer(
                            dev, "memcpy:in-tile", int(in_tile.size)
                        )
                    if out_tile.size:
                        out_tile_parts.append(out_tile)

        out_tile_all = concat_triplets(out_tile_parts)
        if out_tile_all.size:
            _charge_transfer(dev, "memcpy:out-tile", int(out_tile_all.size))
        with tracer.span("stage:host_merge", cat="pipeline") as sp:
            crossing = host_merge(reference, query, out_tile_all, p.min_length)
            mems = concat_triplets(in_parts + [crossing])
            sp.set(
                n_out_tile_fragments=int(out_tile_all.size),
                n_crossing_mems=int(crossing.size),
            )
        run_span.set(n_mems=int(mems.size))

    total_seconds = dev.total_sim_seconds()
    match_reports = [r for r in dev.reports if r.name.startswith(("match", "tile"))]
    transfer_seconds = sum(
        r.sim_seconds for r in dev.reports if r.name.startswith("memcpy")
    )
    stats = {
        "backend": "simulated",
        "device": dev.spec.name,
        "n_tiles": plan.n_tiles,
        "n_out_tile_fragments": int(out_tile_all.size),
        "sim_index_seconds": index_seconds,
        "sim_index_cycles": index_cycles,
        "sim_match_seconds": sum(r.sim_seconds for r in match_reports),
        "sim_transfer_seconds": transfer_seconds,
        "sim_total_seconds": total_seconds,
        "kernel_launches": len(dev.reports),
        "warp_imbalance": (
            float(np.mean([r.imbalance for r in match_reports]))
            if match_reports
            else 0.0
        ),
        "load_balancing": p.load_balancing,
        "params": p.describe(),
    }
    metrics = tracer.metrics
    if metrics.enabled:
        metrics.counter("pipeline.runs", backend="simulated").inc()
        metrics.counter("pipeline.mems", backend="simulated").inc(int(mems.size))
        metrics.counter("stage.fragments", stage="host_merge").inc(
            int(out_tile_all.size)
        )
        metrics.counter("stage.mems", stage="host_merge").inc(int(crossing.size))
        for stage, seconds in (
            ("row_index", index_seconds),
            ("tile_match", stats["sim_match_seconds"]),
            ("transfer", transfer_seconds),
        ):
            metrics.histogram("sim.stage_seconds", stage=stage).observe(seconds)
    return mems, stats
