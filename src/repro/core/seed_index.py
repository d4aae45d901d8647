"""GPU-side partial index construction (paper Algorithm 1, §III-A).

Four steps, exactly as published:

1. **Count** — one thread per indexed location computes its seed value and
   ``atomicAdd``'s ``ptrs[s + 1]``. Run as a real per-thread kernel: the
   simulator's shuffled thread schedule makes the atomic traffic
   order-independent, as on hardware.
2. **Prefix sum** over ``ptrs`` (device primitive, Blelloch-costed).
3. **Fill** — one thread per location reserves a slot in ``locs`` with an
   ``atomicAdd`` on a scratch copy of ``ptrs`` and writes its position.
   Because of the shuffled schedule, ``locs`` comes out *unsorted within
   each seed* — the very property that motivates step 4.
4. **Sort** — per-seed segment sort (device primitive, one thread per seed,
   so the cost model sees the seed-skew imbalance).

The result is the dense layout of the paper's K20c: ``ptrs`` has one entry
per seed value, so ℓs is capped at 13 here (8·4^ℓs bytes per row). Its
``(keys, locs)`` view is identical to the sorted-key index of
:func:`repro.index.kmer_index.build_kmer_index` (tested), while the device
accumulates realistic cost/imbalance accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IndexIntegrityError
from repro.gpu.kernel import Device
from repro.gpu.primitives import gpu_prefix_sum, gpu_segment_sort
from repro.index.kmer_index import grid_positions


@dataclass(frozen=True)
class DenseSeedIndex:
    """Algorithm 1's ``locs``/``ptrs`` pair for one tile row.

    ``locs`` is grouped by seed value; the locations of seed ``s`` are
    ``locs[ptrs[s] : ptrs[s + 1]]``.
    """

    seed_length: int
    step: int
    region_start: int
    region_end: int
    ptrs: np.ndarray  # int64[4**seed_length + 1]
    locs: np.ndarray  # int64[n_locs]

    @property
    def n_locs(self) -> int:
        return int(self.locs.size)

    @property
    def keys(self) -> np.ndarray:
        """The seed value of each ``locs`` slot (the sorted-key view)."""
        counts = np.diff(self.ptrs)
        return np.repeat(np.arange(counts.size, dtype=np.int64), counts)

    def check(self) -> None:
        """``ptrs`` spans ``locs`` monotonically and every group is sorted.

        Raises :class:`repro.errors.IndexIntegrityError`.
        """
        n_seeds = 4**self.seed_length
        if self.ptrs.size != n_seeds + 1:
            raise IndexIntegrityError(
                f"ptrs has {self.ptrs.size} entries, expected {n_seeds + 1} "
                f"(4^{self.seed_length} + 1)",
                field="ptrs",
            )
        if self.ptrs[0] != 0 or self.ptrs[-1] != self.n_locs:
            raise IndexIntegrityError(
                f"ptrs endpoints ({int(self.ptrs[0])}, {int(self.ptrs[-1])}) "
                f"do not span [0, n_locs={self.n_locs}]",
                field="ptrs",
            )
        if not np.all(np.diff(self.ptrs) >= 0):
            raise IndexIntegrityError("ptrs must be non-decreasing", field="ptrs")
        keys = self.keys
        unsorted = (np.diff(keys) == 0) & (np.diff(self.locs) <= 0)
        if np.any(unsorted):
            seed = int(keys[np.argmax(unsorted)])
            raise IndexIntegrityError(
                f"seed {seed} locations not sorted", field="locs"
            )


def _seed_value(codes: np.ndarray, pos: int, seed_length: int) -> int:
    """Big-endian base-4 seed value at ``pos`` (scalar; kernel-side)."""
    v = 0
    for j in range(seed_length):
        v = (v << 2) | int(codes[pos + j])
    return v


def count_kernel(ctx, codes, positions, ptrs, seed_length):
    """Step 1: each thread counts its strided share of locations."""
    stride = ctx.bdim * ctx.gdim
    for i in range(ctx.gtid, positions.size, stride):
        s = _seed_value(codes, int(positions[i]), seed_length)
        ctx.work(seed_length)  # reading/packing the seed
        ctx.atomic_add(ptrs, s + 1, 1)
    yield


def fill_kernel(ctx, codes, positions, temp, locs, seed_length):
    """Step 3: each thread reserves a slot and writes its location."""
    stride = ctx.bdim * ctx.gdim
    for i in range(ctx.gtid, positions.size, stride):
        pos = int(positions[i])
        s = _seed_value(codes, pos, seed_length)
        ctx.work(seed_length)
        slot = ctx.atomic_add(temp, s, 1)
        locs[slot] = pos
        ctx.work(1)
    yield


def build_kmer_index_gpu(
    device: Device,
    codes: np.ndarray,
    *,
    seed_length: int,
    step: int,
    region_start: int = 0,
    region_end: int | None = None,
    block: int = 128,
) -> DenseSeedIndex:
    """Run Algorithm 1 on the simulated device.

    Same region and grid contract as
    :func:`repro.index.kmer_index.build_kmer_index`; the device's report
    list gains the four steps' kernels/primitives. The result is checked
    (:meth:`DenseSeedIndex.check`) before the tile stage reads it: the
    shuffled atomic fill must come out grouped and sorted after step 4.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n = codes.size
    region_end = n if region_end is None else min(int(region_end), n)
    region_start = max(0, int(region_start))
    positions = grid_positions(n, seed_length, step, region_start, region_end)

    n_seeds = 4**seed_length
    tag = f"row{region_start}"
    ptrs = device.memory.alloc(f"ptrs/{tag}", n_seeds + 1, np.int64)
    locs = device.memory.alloc(f"locs/{tag}", max(positions.size, 1), np.int64)

    if positions.size:
        grid = max(1, -(-positions.size // block))
        device.launch(
            count_kernel, grid, block, codes, positions, ptrs, seed_length,
            name="index:count",
        )
        gpu_prefix_sum(device, ptrs, exclusive=False)  # ptrs[s+1] was counted
        temp = ptrs[:-1].copy()  # "temp" scratch of Algorithm 1 step 3
        device.launch(
            fill_kernel, grid, block, codes, positions, temp, locs, seed_length,
            name="index:fill",
        )
        gpu_segment_sort(device, locs[: positions.size], ptrs)

    index = DenseSeedIndex(
        seed_length=seed_length,
        step=step,
        region_start=region_start,
        region_end=region_end,
        ptrs=ptrs.copy(),
        locs=locs[: positions.size].copy(),
    )
    device.memory.free(f"ptrs/{tag}")
    device.memory.free(f"locs/{tag}")
    index.check()
    return index
