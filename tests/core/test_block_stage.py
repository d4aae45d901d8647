"""Direct tests of the block kernel (repro.core.block_stage)."""

import numpy as np

from repro.core.block_stage import BlockTask, _seed_value, block_kernel
from repro.core.params import GpuMemParams
from repro.gpu.device import TEST_DEVICE
from repro.gpu.kernel import Device
from repro.index.kmer_index import build_kmer_index

from tests.conftest import dense_ptrs


def make_task(R, Q, params, r_lo=None, r_hi=None, q_lo=None, q_hi=None):
    index = build_kmer_index(
        R, seed_length=params.seed_length, step=params.step,
        region_start=r_lo or 0, region_end=r_hi if r_hi is not None else R.size,
    )
    return BlockTask(
        reference=R,
        query=Q,
        ptrs=dense_ptrs(index.keys, params.seed_length),
        locs=index.locs,
        seed_length=params.seed_length,
        w=params.work_per_thread,
        min_length=params.min_length,
        r_lo=r_lo or 0,
        r_hi=r_hi if r_hi is not None else R.size,
        q_lo=q_lo or 0,
        q_hi=q_hi if q_hi is not None else Q.size,
        block_width=params.block_width,
        balancing=params.load_balancing,
    )


def run_blocks(R, Q, params, **kw):
    task = make_task(R, Q, params, **kw)
    dev = Device(TEST_DEVICE)
    dev.launch(block_kernel, task.n_blocks, params.threads_per_block, task)
    in_block = sorted(t for lst in task.in_block.values() for t in lst)
    out_block = sorted(t for lst in task.out_block.values() for t in lst)
    return in_block, out_block, dev


class TestSeedValue:
    def test_matches_kmer_codes(self):
        from repro.sequence.packed import kmer_codes

        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 50).astype(np.uint8)
        km = kmer_codes(codes, 4)
        for pos in (0, 7, 46):
            assert _seed_value(codes, pos, 4) == km[pos]


class TestBlockKernel:
    def params(self, **kw):
        defaults = dict(min_length=5, seed_length=3, threads_per_block=4,
                        blocks_per_tile=2)
        defaults.update(kw)
        return GpuMemParams(**defaults)

    def test_interior_mem_reported_in_block(self):
        # a single length-5 MEM strictly inside the block box
        R = np.array([3, 3, 0, 1, 2, 0, 1, 3, 3] + [3] * 24, dtype=np.uint8)
        Q = np.array([2, 2, 0, 1, 2, 0, 1, 2, 2] + [2] * 24, dtype=np.uint8)
        p = self.params()
        in_block, out_block, _ = run_blocks(R, Q, p)
        assert (2, 2, 5) in in_block

    def test_boundary_fragment_goes_out(self):
        R = (np.arange(40) % 4).astype(np.uint8)
        Q = R.copy()
        p = self.params()
        in_block, out_block, _ = run_blocks(R, Q, p)
        # the full-diagonal match crosses every block: nothing final in-block
        assert not any(l >= 40 for _, _, l in in_block)
        assert out_block  # fragments forwarded

    def test_balancing_modes_equal_output(self):
        rng = np.random.default_rng(1)
        R = rng.integers(0, 3, 120).astype(np.uint8)
        Q = rng.integers(0, 3, 100).astype(np.uint8)
        a = run_blocks(R, Q, self.params(load_balancing=True))[:2]
        b = run_blocks(R, Q, self.params(load_balancing=False))[:2]
        assert a == b

    def test_unbalanced_skips_algorithm2_phases(self):
        rng = np.random.default_rng(2)
        R = rng.integers(0, 3, 80).astype(np.uint8)
        Q = rng.integers(0, 3, 80).astype(np.uint8)
        *_, dev_on = run_blocks(R, Q, self.params(load_balancing=True))
        *_, dev_off = run_blocks(R, Q, self.params(load_balancing=False))
        assert dev_on.reports[-1].n_phases > dev_off.reports[-1].n_phases

    def test_n_blocks_covers_query_range(self):
        p = self.params()
        task = make_task(np.zeros(10, np.uint8), np.zeros(100, np.uint8), p,
                         q_lo=0, q_hi=100)
        assert task.n_blocks == -(-100 // p.block_width)

    def test_empty_block_range_is_harmless(self):
        R = np.zeros(20, dtype=np.uint8)
        Q = np.zeros(4, dtype=np.uint8)
        p = self.params()
        in_block, out_block, _ = run_blocks(R, Q, p, q_lo=0, q_hi=4)
        # all matches touch the tiny box -> everything is out-block
        assert in_block == []

    def test_seed_hits_only_from_own_index_rows(self):
        # index restricted to reference rows [8, 16): no hit may have r < 8
        R = np.zeros(24, dtype=np.uint8)
        Q = np.zeros(16, dtype=np.uint8)
        p = self.params()
        in_block, out_block, _ = run_blocks(R, Q, p, r_lo=8, r_hi=16)
        for r, _q, l in in_block + out_block:
            assert 8 <= r or r + l > 8  # fragments clipped to the row band
