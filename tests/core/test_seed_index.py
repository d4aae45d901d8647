"""Tests for repro.core.seed_index (Algorithm 1 on the simulator)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.seed_index import build_kmer_index_gpu
from repro.gpu.device import TEST_DEVICE
from repro.gpu.kernel import Device
from repro.index.kmer_index import build_kmer_index

from tests.conftest import dense_ptrs, dna


class TestGpuIndexBuild:
    @settings(max_examples=30, deadline=None)
    @given(dna(min_size=1, max_size=150), st.integers(1, 3), st.integers(1, 4))
    def test_equals_cpu_reference(self, codes, ls, step):
        dev = Device(TEST_DEVICE)
        gpu = build_kmer_index_gpu(dev, codes, seed_length=ls, step=step, block=8)
        cpu = build_kmer_index(codes, seed_length=ls, step=step)
        assert np.array_equal(gpu.keys, cpu.keys)
        assert np.array_equal(gpu.locs, cpu.locs)
        assert np.array_equal(gpu.ptrs, dense_ptrs(cpu.keys, ls))

    def test_region_build(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 200).astype(np.uint8)
        dev = Device(TEST_DEVICE)
        gpu = build_kmer_index_gpu(
            dev, codes, seed_length=2, step=3, region_start=50, region_end=150,
            block=8,
        )
        cpu = build_kmer_index(codes, seed_length=2, step=3,
                               region_start=50, region_end=150)
        assert np.array_equal(gpu.keys, cpu.keys)
        assert np.array_equal(gpu.locs, cpu.locs)

    def test_four_steps_recorded(self):
        dev = Device(TEST_DEVICE)
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, 100).astype(np.uint8)
        build_kmer_index_gpu(dev, codes, seed_length=2, step=1, block=8)
        names = [r.name for r in dev.reports]
        assert names == ["index:count", "GPUPrefixSum", "index:fill", "GPUSegmentSort"]

    def test_device_memory_released(self):
        dev = Device(TEST_DEVICE)
        codes = np.zeros(50, dtype=np.uint8)
        build_kmer_index_gpu(dev, codes, seed_length=2, step=1, block=8)
        assert dev.memory.used_bytes == 0

    def test_empty_region(self):
        dev = Device(TEST_DEVICE)
        codes = np.zeros(20, dtype=np.uint8)
        idx = build_kmer_index_gpu(
            dev, codes, seed_length=3, step=1, region_start=19, region_end=19,
        )
        assert idx.n_locs == 0

    def test_sim_time_positive(self):
        dev = Device(TEST_DEVICE)
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 4, 300).astype(np.uint8)
        build_kmer_index_gpu(dev, codes, seed_length=3, step=2, block=8)
        assert dev.total_sim_seconds() > 0

    def test_locs_sorted_within_seed_despite_shuffled_fill(self):
        """Step 4's purpose: atomic fill order is shuffled, sort restores
        per-seed order."""
        dev = Device(TEST_DEVICE, schedule_seed=99)
        codes = np.zeros(100, dtype=np.uint8)  # single hot seed
        idx = build_kmer_index_gpu(dev, codes, seed_length=2, step=1, block=8)
        idx.check()  # asserts strict per-seed ordering
