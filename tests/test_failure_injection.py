"""Failure injection: corrupted structures and exhausted budgets must be
loud, not silent."""

import numpy as np
import pytest

from repro.errors import (
    GpuMemError,
    IndexIntegrityError,
    InvalidParameterError,
    InvalidSequenceError,
    KernelError,
    MemoryBudgetError,
)


class TestCorruptedIndex:
    """The simulated backend's dense Algorithm-1 index (``locs``/``ptrs``)."""

    def make_index(self):
        from repro.core.seed_index import build_kmer_index_gpu
        from repro.gpu.device import TEST_DEVICE
        from repro.gpu.kernel import Device

        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 200).astype(np.uint8)
        return build_kmer_index_gpu(
            Device(TEST_DEVICE), codes, seed_length=3, step=2, block=8
        )

    def test_check_catches_unsorted_locs(self):
        idx = self.make_index()
        # corrupt: swap two locations within a multi-entry seed bucket
        sizes = np.diff(idx.ptrs)
        seed = int(np.argmax(sizes))
        assert sizes[seed] >= 2
        lo = int(idx.ptrs[seed])
        idx.locs[lo], idx.locs[lo + 1] = idx.locs[lo + 1], idx.locs[lo].copy()
        # A structured error (never AssertionError: python -O strips asserts).
        with pytest.raises(IndexIntegrityError, match="not sorted"):
            idx.check()

    def test_check_catches_bad_ptrs(self):
        idx = self.make_index()
        idx.ptrs[5] = idx.ptrs[4] - 1  # non-monotone
        with pytest.raises(IndexIntegrityError, match="non-decreasing"):
            idx.check()

    def test_check_catches_bad_total(self):
        idx = self.make_index()
        idx.ptrs[-1] += 1
        with pytest.raises(IndexIntegrityError, match="endpoints"):
            idx.check()

    def test_integrity_error_is_catchable_as_gpumem_error(self):
        idx = self.make_index()
        idx.ptrs[-1] += 1
        with pytest.raises(GpuMemError):
            idx.check()


class TestDeviceBudgets:
    def test_index_build_oom_on_tiny_device(self):
        from repro.core.seed_index import build_kmer_index_gpu
        from repro.gpu.device import DeviceSpec
        from repro.gpu.kernel import Device

        tiny = DeviceSpec("tiny", 1, 8, 4, 1e6, global_mem_bytes=1024)
        dev = Device(tiny)
        codes = np.zeros(4000, dtype=np.uint8)
        with pytest.raises(MemoryBudgetError):
            # ptrs for ℓs=6 alone is 4^6 * 8 bytes >> 1 KiB
            build_kmer_index_gpu(dev, codes, seed_length=6, step=1, block=8)

    def test_shared_memory_overflow_in_kernel(self):
        from repro.gpu.device import DeviceSpec
        from repro.gpu.kernel import Device

        spec = DeviceSpec("s", 1, 8, 4, 1e6, 1 << 20, shared_mem_per_block=16)
        dev = Device(spec)

        def greedy(ctx):
            ctx.shared.array("big", 64, np.int64)
            yield

        with pytest.raises(MemoryBudgetError):
            dev.launch(greedy, 1, 4)


class TestBadSequences:
    def test_protein_sequence_rejected(self):
        import repro

        with pytest.raises(InvalidSequenceError):
            repro.find_mems("MKVL", "MKVL", min_length=2, seed_length=2)

    def test_mem_finder_rejects_garbage(self):
        from repro.baselines import MummerFinder

        with pytest.raises(InvalidSequenceError):
            MummerFinder().build_index("not dna!")


class TestErrorHierarchy:
    def test_all_library_errors_share_base(self):
        for exc in (InvalidParameterError, InvalidSequenceError,
                    MemoryBudgetError, KernelError):
            assert issubclass(exc, GpuMemError)

    def test_parameter_errors_are_value_errors(self):
        assert issubclass(InvalidParameterError, ValueError)

    def test_memory_errors_are_memory_errors(self):
        assert issubclass(MemoryBudgetError, MemoryError)
