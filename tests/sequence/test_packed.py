"""Tests for repro.sequence.packed."""

import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidSequenceError
from repro.sequence.packed import (
    PackedSequence,
    SharedSequenceHandle,
    kmer_codes,
    pack_bits,
    unpack_bits,
)

from tests.conftest import dna


class TestPackBits:
    def test_round_trip_exact_multiple(self):
        codes = np.array([0, 1, 2, 3, 3, 2, 1, 0], dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(codes), 8), codes)

    @given(dna(max_size=300))
    def test_round_trip_property(self, codes):
        assert np.array_equal(unpack_bits(pack_bits(codes), codes.size), codes)

    def test_packed_size(self):
        assert pack_bits(np.zeros(9, dtype=np.uint8)).size == 3  # ceil(9/4)

    def test_packing_density(self):
        # 2 bits/base: 4 bases per byte, the paper's storage (§IV)
        codes = np.zeros(4000, dtype=np.uint8)
        assert pack_bits(codes).nbytes == 1000

    def test_unpack_too_many_raises(self):
        with pytest.raises(InvalidSequenceError):
            unpack_bits(np.zeros(1, dtype=np.uint8), 5)

    def test_known_bit_layout(self):
        # bases [0,1,2,3] -> byte 0b11100100 = 228 (little-endian in byte)
        assert pack_bits(np.array([0, 1, 2, 3], dtype=np.uint8))[0] == 0b11100100


class TestKmerCodes:
    def test_manual_example(self):
        # "ACGT": 2-mers AC=0*4+1=1, CG=1*4+2=6, GT=2*4+3=11
        codes = np.array([0, 1, 2, 3], dtype=np.uint8)
        assert kmer_codes(codes, 2).tolist() == [1, 6, 11]

    def test_k_equals_length(self):
        codes = np.array([3, 0], dtype=np.uint8)
        assert kmer_codes(codes, 2).tolist() == [12]

    def test_k_longer_than_seq(self):
        assert kmer_codes(np.array([1], dtype=np.uint8), 2).size == 0

    @given(dna(min_size=1, max_size=100), st.integers(1, 6))
    def test_matches_naive(self, codes, k):
        got = kmer_codes(codes, k)
        expect = [
            sum(int(codes[i + j]) * 4 ** (k - 1 - j) for j in range(k))
            for i in range(max(0, codes.size - k + 1))
        ]
        assert got.tolist() == expect

    def test_invalid_k(self):
        with pytest.raises(InvalidSequenceError):
            kmer_codes(np.zeros(5, dtype=np.uint8), 0)
        with pytest.raises(InvalidSequenceError):
            kmer_codes(np.zeros(5, dtype=np.uint8), 32)

    def test_values_in_range(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 500).astype(np.uint8)
        km = kmer_codes(codes, 8)
        assert km.min() >= 0 and km.max() < 4**8


class TestPackedSequence:
    def test_from_string(self):
        seq = PackedSequence("ACGTACGT")
        assert len(seq) == 8
        assert seq.to_string() == "ACGTACGT"

    def test_slicing(self):
        seq = PackedSequence("ACGTACGT")
        assert seq[2:5].to_string() == "GTA"

    def test_scalar_index(self):
        assert PackedSequence("ACGT")[3] == 3

    def test_equality(self):
        assert PackedSequence("ACG") == PackedSequence("ACG")
        assert PackedSequence("ACG") != PackedSequence("ACT")

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PackedSequence("A"))

    def test_packed_footprint(self):
        seq = PackedSequence("A" * 1000)
        assert seq.nbytes_packed == 250

    def test_code_cache_drop_and_recover(self):
        seq = PackedSequence("ACGTTGCA")
        before = seq.codes().copy()
        seq.drop_code_cache()
        assert np.array_equal(seq.codes(), before)

    def test_kmers_delegates(self):
        seq = PackedSequence("ACGT")
        assert seq.kmers(2).tolist() == [1, 6, 11]

    def test_repr_contains_length(self):
        assert "n=4" in repr(PackedSequence("ACGT"))


class TestFromPacked:
    def test_zero_copy_view(self):
        seq = PackedSequence("ACGTACGTT")
        other = PackedSequence.from_packed(seq.packed, len(seq))
        assert other == seq
        assert other.packed is seq.packed  # referenced, not copied

    def test_length_validation(self):
        with pytest.raises(InvalidSequenceError):
            PackedSequence.from_packed(np.zeros(1, dtype=np.uint8), 5)


class TestSharedMemory:
    def _fresh(self, text="ACGT" * 60):
        return PackedSequence(text, name="ref")

    def test_round_trip(self):
        seq = self._fresh()
        try:
            handle = seq.to_shared()
            assert isinstance(handle, SharedSequenceHandle)
            assert handle.n_bases == len(seq) and handle.name == "ref"
            other = PackedSequence.from_shared(handle)
            assert other == seq
            assert np.array_equal(other.codes(), seq.codes())
            other.close_shared()
        finally:
            seq.unlink_shared()

    def test_to_shared_idempotent(self):
        seq = self._fresh()
        try:
            assert seq.to_shared().shm_name == seq.to_shared().shm_name
        finally:
            seq.unlink_shared()

    def test_handle_attach_and_pickle(self):
        import pickle

        seq = self._fresh()
        try:
            handle = pickle.loads(pickle.dumps(seq.to_shared()))
            other = handle.attach()
            assert other == seq
            other.close_shared()
        finally:
            seq.unlink_shared()

    def test_detach_leaves_owner_segment_alive(self):
        seq = self._fresh()
        try:
            handle = seq.to_shared()
            first = PackedSequence.from_shared(handle)
            first.close_shared()
            second = PackedSequence.from_shared(handle)  # still attachable
            assert second == seq
            second.close_shared()
        finally:
            seq.unlink_shared()

    def test_close_shared_materializes_owner(self):
        seq = self._fresh()
        before = seq.codes().copy()
        seq.to_shared()
        seq.unlink_shared()
        # owner keeps working on a private copy after the segment is gone
        assert np.array_equal(seq.codes(), before)
        assert seq[3] == 3

    def test_unlink_removes_segment(self):
        from multiprocessing import shared_memory

        seq = self._fresh()
        handle = seq.to_shared()
        seq.unlink_shared()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.shm_name)

    def test_unlink_idempotent(self):
        seq = self._fresh()
        seq.to_shared()
        seq.unlink_shared()
        seq.unlink_shared()  # no-op, no error

    def test_empty_sequence(self):
        seq = PackedSequence("")
        try:
            other = PackedSequence.from_shared(seq.to_shared())
            assert len(other) == 0
            other.close_shared()
        finally:
            seq.unlink_shared()

    def test_pickle_round_trip_is_self_contained(self):
        import pickle

        seq = self._fresh()
        try:
            seq.to_shared()
            clone = pickle.loads(pickle.dumps(seq))
        finally:
            seq.unlink_shared()
        # the clone never references the (now unlinked) segment
        assert clone == seq
        assert np.array_equal(clone.codes(), seq.codes())


class TestCloseLifecycle:
    """close_shared idempotency, BufferError retry, shutdown safety."""

    def _fresh(self):
        return PackedSequence("ACGT" * 60, name="ref")

    def test_attacher_double_close_is_idempotent(self):
        seq = self._fresh()
        try:
            other = PackedSequence.from_shared(seq.to_shared())
            other.close_shared()
            other.close_shared()  # second close: no-op, no error
        finally:
            seq.unlink_shared()

    def test_owner_double_close_is_idempotent(self):
        seq = self._fresh()
        handle = seq.to_shared()
        seq.close_shared()
        seq.close_shared()  # no-op
        # the named segment still exists (close only unmapped): reap it
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=handle.shm_name)
        shm.close()
        shm.unlink()

    def test_live_view_raises_then_retry_succeeds(self):
        seq = self._fresh()
        try:
            other = PackedSequence.from_shared(seq.to_shared())
            view = other.packed  # export over shm.buf pins the mapping
            with pytest.raises(BufferError):
                other.close_shared()
            # state was restored: dropping the view makes a retry work
            del view
            other.close_shared()
            assert np.array_equal(other.codes(), seq.codes())
        finally:
            seq.unlink_shared()

    def test_interpreter_shutdown_finalizer_is_silent(self):
        """A __del__-driven close during shutdown must not print
        BufferError tracebacks or trip error::ResourceWarning."""
        import subprocess
        import sys

        script = (
            "from repro.sequence.packed import PackedSequence\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self.seq = PackedSequence('ACGT' * 50)\n"
            "        self.att = PackedSequence.from_shared(self.seq.to_shared())\n"
            "        self.view = self.att.packed  # outlives teardown order\n"
            "    def __del__(self):\n"
            "        self.att.close_shared(materialize=False)\n"
            "        self.seq.unlink_shared()\n"
            "holder = Holder()\n"
        )
        env = dict(os.environ, PYTHONWARNINGS="error::ResourceWarning")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p] or [""]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "", proc.stderr
