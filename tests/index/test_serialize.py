"""Tests for index persistence."""

import subprocess
import sys

import numpy as np
import pytest

from repro.errors import IndexError_, IndexIntegrityError
from repro.index.kmer_index import build_kmer_index
from repro.index.matching import SuffixArraySearcher
from repro.index.serialize import (
    FORMAT_VERSION,
    load_kmer_bundle,
    load_kmer_index,
    load_searcher,
    load_searcher_bundle,
    npz_path,
    save_kmer_bundle,
    save_kmer_index,
    save_searcher,
    save_searcher_bundle,
)

from tests.conftest import dense_ptrs, plant_dense_bundle
from tests.index.test_kmer_index import largest_group


@pytest.fixture
def ref(rng):
    return rng.integers(0, 4, 500).astype(np.uint8)


class TestKmerIndexRoundTrip:
    def test_round_trip(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = tmp_path / "idx.npz"
        save_kmer_index(idx, p)
        back = load_kmer_index(p)
        assert back.seed_length == 4 and back.step == 3
        assert np.array_equal(back.keys, idx.keys)
        assert np.array_equal(back.locs, idx.locs)

    def test_loaded_index_matches(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = tmp_path / "idx.npz"
        save_kmer_index(idx, p)
        back = load_kmer_index(p)
        # identical lookups
        seeds = np.arange(50, dtype=np.int64)
        a = idx.lookup(seeds)
        b = back.lookup(seeds)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_corruption_detected(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=3, step=1)
        p = tmp_path / "idx.npz"
        # corrupt locs ordering before saving
        bad_locs = idx.locs.copy()
        _, lo = largest_group(idx)
        bad_locs[lo], bad_locs[lo + 1] = bad_locs[lo + 1], bad_locs[lo].copy()
        from dataclasses import replace

        save_kmer_index(replace(idx, locs=bad_locs), p)
        with pytest.raises(IndexError_, match="corrupt"):
            load_kmer_index(p)

    def test_wrong_magic(self, ref, tmp_path):
        s = SuffixArraySearcher(ref)
        p = tmp_path / "sa.npz"
        save_searcher(s, p)
        with pytest.raises(IndexError_, match="not a"):
            load_kmer_index(p)


class TestSearcherRoundTrip:
    @pytest.mark.parametrize("sparseness,k", [(1, 0), (1, 3), (4, 3)])
    def test_round_trip_equivalent_queries(self, ref, tmp_path, rng, sparseness, k):
        s = SuffixArraySearcher(ref, sparseness=sparseness, prefix_table_k=k)
        p = tmp_path / "sa.npz"
        save_searcher(s, p)
        back = load_searcher(p)
        Q = rng.integers(0, 4, 300).astype(np.uint8)
        qpos = np.arange(Q.size)
        got = back.enumerate_candidates(Q, qpos, 5)
        expect = s.enumerate_candidates(Q, qpos, 5)
        assert all(np.array_equal(g, e) for g, e in zip(got, expect, strict=True))

    def test_corrupt_sa_detected(self, ref, tmp_path):
        s = SuffixArraySearcher(ref)
        s.sa[0], s.sa[1] = s.sa[1], s.sa[0].copy()
        p = tmp_path / "sa.npz"
        save_searcher(s, p)
        with pytest.raises(IndexError_, match="corrupt"):
            load_searcher(p)

    def test_future_version_rejected(self, ref, tmp_path):
        s = SuffixArraySearcher(ref)
        p = tmp_path / "sa.npz"
        save_searcher(s, p)
        data = dict(np.load(p, allow_pickle=False))
        data["version"] = np.array(99)
        np.savez_compressed(p, **data)
        with pytest.raises(IndexError_, match="newer"):
            load_searcher(p)


class TestSuffixNormalization:
    """np.savez silently appends .npz; save/load must agree on the name."""

    def test_save_without_suffix_load_without_suffix(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = tmp_path / "idx"  # no .npz
        written = save_kmer_index(idx, p)
        assert written == npz_path(p) and written.exists()
        assert not p.exists()  # nothing at the bare name
        back = load_kmer_index(p)  # bare spelling resolves to .npz
        assert np.array_equal(back.locs, idx.locs)

    def test_save_without_suffix_load_with_suffix(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        save_kmer_index(idx, tmp_path / "idx")
        back = load_kmer_index(tmp_path / "idx.npz")
        assert np.array_equal(back.keys, idx.keys)

    def test_searcher_suffix_normalized(self, ref, tmp_path):
        s = SuffixArraySearcher(ref)
        written = save_searcher(s, tmp_path / "sa")
        assert written.name == "sa.npz"
        load_searcher(tmp_path / "sa")


class TestCrashSafety:
    def test_no_temp_litter_after_save(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        save_kmer_index(idx, tmp_path / "idx.npz")
        save_searcher(SuffixArraySearcher(ref), tmp_path / "sa.npz")
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"idx.npz", "sa.npz"}  # no .tmp files left behind

    def test_truncated_archive_rejected_structurally(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = save_kmer_index(idx, tmp_path / "idx.npz")
        whole = p.read_bytes()
        p.write_bytes(whole[: len(whole) // 2])  # simulate external truncation
        with pytest.raises(IndexError_, match="truncated or corrupt"):
            load_kmer_index(p)

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "junk.npz"
        p.write_bytes(b"this is not a zip archive")
        with pytest.raises(IndexError_):
            load_kmer_index(p)

    def test_overwrite_is_atomic_replacement(self, ref, tmp_path):
        idx_a = build_kmer_index(ref, seed_length=4, step=3)
        idx_b = build_kmer_index(ref, seed_length=4, step=4)
        p = tmp_path / "idx.npz"
        save_kmer_index(idx_a, p)
        save_kmer_index(idx_b, p)  # replaces, never appends/mixes
        assert load_kmer_index(p).step == 4


class TestHeaderValidation:
    def _raw(self, p):
        return dict(np.load(p, allow_pickle=False))

    def test_missing_version_rejected(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = save_kmer_index(idx, tmp_path / "idx.npz")
        data = self._raw(p)
        del data["version"]
        np.savez_compressed(p, **data)
        with pytest.raises(IndexError_, match="no format version"):
            load_kmer_index(p)

    def test_missing_array_rejected(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = save_kmer_index(idx, tmp_path / "idx.npz")
        data = self._raw(p)
        del data["locs"]
        np.savez_compressed(p, **data)
        with pytest.raises(IndexError_, match="missing required array"):
            load_kmer_index(p)

    def test_dtype_mismatch_rejected_not_converted(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = save_kmer_index(idx, tmp_path / "idx.npz")
        data = self._raw(p)
        data["keys"] = data["keys"].astype(np.int32)
        np.savez_compressed(p, **data)
        with pytest.raises(IndexError_, match="dtype"):
            load_kmer_index(p)

    def test_wrong_endianness_rejected(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = save_kmer_index(idx, tmp_path / "idx.npz")
        data = self._raw(p)
        data["locs"] = data["locs"].astype(np.dtype(">i8"))
        np.savez_compressed(p, **data)
        with pytest.raises(IndexError_, match="dtype"):
            load_kmer_index(p)

    def test_v1_archive_loads_under_v2(self, ref, tmp_path):
        """Version numbers down to MIN_FORMAT_VERSION pass the header check
        (a k-mer archive must still hold the version-3 ``keys``)."""
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = save_kmer_index(idx, tmp_path / "idx.npz")
        data = self._raw(p)
        data["version"] = np.array(1)
        np.savez_compressed(p, **data)
        back = load_kmer_index(p)
        assert np.array_equal(back.locs, idx.locs)

    def test_check_raises_structured_error_under_python_O(self, tmp_path):
        """-O strips asserts; integrity checks must survive it."""
        code = (
            "import numpy as np\n"
            "from repro.errors import IndexIntegrityError\n"
            "from repro.index.kmer_index import build_kmer_index\n"
            "idx = build_kmer_index("
            "np.arange(64, dtype=np.uint8) % 4, seed_length=3, step=1)\n"
            "idx.keys[0] = idx.keys[-1] + 1\n"
            "try:\n"
            "    idx.check()\n"
            "except IndexIntegrityError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestKmerBundle:
    def test_round_trip_mmap(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        d = save_kmer_bundle(idx, tmp_path / "bundle")
        back = load_kmer_bundle(d, mmap=True, check=True)
        assert isinstance(back.keys, np.memmap)  # zero-copy load
        assert isinstance(back.locs, np.memmap)
        assert np.array_equal(back.keys, idx.keys)
        assert np.array_equal(back.locs, idx.locs)
        assert sorted(p.name for p in d.iterdir()) == [
            "keys.npy", "locs.npy", "meta.json"]
        assert back.seed_length == 4 and back.step == 3
        assert back.region_start == idx.region_start
        assert back.region_end == idx.region_end

    def test_round_trip_materialized(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        d = save_kmer_bundle(idx, tmp_path / "bundle")
        back = load_kmer_bundle(d, mmap=False)
        assert not isinstance(back.locs, np.memmap)
        assert np.array_equal(back.locs, idx.locs)

    def test_dense_layout_bundle_is_invalid(self, ref, tmp_path):
        # a version-2 bundle (ptrs/present, no keys) must not load
        d = plant_dense_bundle(tmp_path / "bundle", ref, seed_length=4, step=3)
        with pytest.raises(IndexError_, match="keys"):
            load_kmer_bundle(d)

    def test_dense_layout_archive_is_invalid(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        p = save_kmer_index(idx, tmp_path / "idx.npz")
        data = dict(np.load(p, allow_pickle=False))
        del data["keys"]
        data["ptrs"] = dense_ptrs(idx.keys, 4)
        data["version"] = np.array(2)
        np.savez_compressed(p, **data)
        with pytest.raises(IndexError_, match="keys"):
            load_kmer_index(p)

    def test_missing_meta_is_file_not_found(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_kmer_bundle(tmp_path / "empty")
        with pytest.raises(FileNotFoundError):
            load_kmer_bundle(tmp_path / "never-created")

    def test_wrong_magic_bundle(self, ref, tmp_path):
        d = save_searcher_bundle(SuffixArraySearcher(ref), tmp_path / "sa")
        with pytest.raises(IndexError_, match="not a"):
            load_kmer_bundle(d)

    def test_truncated_array_file_rejected(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        d = save_kmer_bundle(idx, tmp_path / "bundle")
        locs = d / "locs.npy"
        locs.write_bytes(locs.read_bytes()[:16])
        with pytest.raises(IndexError_):
            load_kmer_bundle(d)

    def test_deleted_array_file_rejected(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        d = save_kmer_bundle(idx, tmp_path / "bundle")
        (d / "keys.npy").unlink()
        with pytest.raises(IndexError_, match="missing array file"):
            load_kmer_bundle(d)

    def test_future_version_rejected(self, ref, tmp_path):
        import json

        idx = build_kmer_index(ref, seed_length=4, step=3)
        d = save_kmer_bundle(idx, tmp_path / "bundle")
        meta = json.loads((d / "meta.json").read_text())
        assert meta["version"] == FORMAT_VERSION
        meta["version"] = 99
        (d / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexError_, match="newer"):
            load_kmer_bundle(d)

    def test_corrupt_manifest_rejected(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        d = save_kmer_bundle(idx, tmp_path / "bundle")
        (d / "meta.json").write_text("{not json")
        with pytest.raises(IndexError_, match="manifest"):
            load_kmer_bundle(d)

    def test_mmap_arrays_are_read_only(self, ref, tmp_path):
        idx = build_kmer_index(ref, seed_length=4, step=3)
        d = save_kmer_bundle(idx, tmp_path / "bundle")
        back = load_kmer_bundle(d, mmap=True)
        with pytest.raises((ValueError, OSError)):
            back.locs[0] = 0

    def test_check_detects_corruption(self, ref, tmp_path):
        from dataclasses import replace

        idx = build_kmer_index(ref, seed_length=3, step=1)
        bad = idx.locs.copy()
        _, lo = largest_group(idx)
        bad[lo], bad[lo + 1] = bad[lo + 1], bad[lo].copy()
        d = save_kmer_bundle(replace(idx, locs=bad), tmp_path / "bundle")
        load_kmer_bundle(d, check=False)  # structural pass: shapes/dtypes OK
        with pytest.raises(IndexIntegrityError, match="corrupt"):
            load_kmer_bundle(d, check=True)


class TestSearcherBundle:
    @pytest.mark.parametrize("sparseness,k", [(1, 0), (1, 3), (4, 3)])
    def test_round_trip_equivalent_queries(self, ref, tmp_path, rng, sparseness, k):
        s = SuffixArraySearcher(ref, sparseness=sparseness, prefix_table_k=k)
        d = save_searcher_bundle(s, tmp_path / "sa")
        back = load_searcher_bundle(d, mmap=True, verify=True)
        Q = rng.integers(0, 4, 300).astype(np.uint8)
        qpos = np.arange(Q.size)
        got = back.enumerate_candidates(Q, qpos, 5)
        expect = s.enumerate_candidates(Q, qpos, 5)
        assert all(np.array_equal(g, e) for g, e in zip(got, expect, strict=True))

    def test_prefix_table_persisted_not_rebuilt(self, ref, tmp_path):
        s = SuffixArraySearcher(ref, prefix_table_k=3)
        d = save_searcher_bundle(s, tmp_path / "sa")
        assert (d / "pt_lo.npy").exists() and (d / "pt_hi.npy").exists()
        back = load_searcher_bundle(d, mmap=True)
        # loaded straight off disk, not recomputed: they're memmaps
        assert isinstance(back._pt_lo, np.memmap)
        assert np.array_equal(back._pt_lo, s._pt_lo)
        assert np.array_equal(back._pt_hi, s._pt_hi)

    def test_no_prefix_table_no_files(self, ref, tmp_path):
        s = SuffixArraySearcher(ref, prefix_table_k=0)
        d = save_searcher_bundle(s, tmp_path / "sa")
        assert not (d / "pt_lo.npy").exists()
        back = load_searcher_bundle(d)
        assert back._pt_lo is None

    def test_verify_catches_corrupt_sa(self, ref, tmp_path):
        s = SuffixArraySearcher(ref)
        d = save_searcher_bundle(s, tmp_path / "sa")
        sa = np.load(d / "sa.npy")
        sa[0], sa[1] = sa[1], sa[0].copy()
        np.save(d / "sa.npy", sa)
        with pytest.raises(IndexIntegrityError, match="corrupt"):
            load_searcher_bundle(d, verify=True)
