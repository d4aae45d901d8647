"""Index persistence: save/load prebuilt indexes.

Table IV's premise is tools matching with a *prebuilt* index. This module
makes that workflow real for the library, in two on-disk layouts sharing
one format version and one validation discipline:

- **``.npz`` archives** (:func:`save_kmer_index` / :func:`save_searcher`) —
  single portable compressed files, the interchange format.
- **Bundle directories** (:func:`save_kmer_bundle` /
  :func:`save_searcher_bundle`) — a ``meta.json`` manifest plus one plain
  ``.npy`` file per array, so loads go through
  ``np.load(..., mmap_mode="r")`` and are zero-copy: the warm tier of
  :class:`repro.index.store.IndexStore` pays page-cache cost, not
  deserialization cost.

Both layouts are written crash-safely (temp file / temp directory in the
destination's directory, then an atomic ``os.replace``), carry
magic + ``FORMAT_VERSION`` headers, and are validated structurally on
load: missing keys, truncated archives, and dtype/endianness mismatches
raise :class:`repro.errors.IndexError_` instead of surfacing as confusing
``KeyError``/``zipfile`` internals — and never silently ``.astype``-copy,
which would defeat the mmap zero-copy contract.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import IndexError_, IndexIntegrityError
from repro.index.kmer_index import KmerSeedIndex
from repro.index.matching import SuffixArraySearcher

#: Bump when the on-disk layout changes. Version 2 added the mmap bundle
#: layout; version 3 stores k-mer indexes as sorted ``keys`` beside
#: ``locs`` (no dense ``ptrs`` table). Older k-mer files lack ``keys`` and
#: are rejected as invalid; searcher files are unchanged since version 1.
FORMAT_VERSION = 3

#: Oldest format version the loaders accept (searchers; k-mer indexes
#: need the version-3 arrays).
MIN_FORMAT_VERSION = 1

_KMER_MAGIC = "repro-kmer-index"
_SA_MAGIC = "repro-sa-index"

_META_NAME = "meta.json"


# -- path + atomic-write helpers -----------------------------------------------

def npz_path(path) -> Path:
    """``path`` with the ``.npz`` suffix ``np.savez`` would give it.

    ``np.savez_compressed`` silently appends ``.npz`` when the name lacks
    it, so ``save(p)`` followed by ``load(p)`` used to raise
    ``FileNotFoundError``. Save and load both normalize through this
    helper, so either spelling works.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def _resolve_npz_for_load(path) -> Path:
    """The on-disk spelling of ``path``: exact if present, else ``.npz``."""
    exact = Path(path)
    return exact if exact.exists() else npz_path(path)


def _atomic_savez(path: Path, **arrays) -> None:
    """``np.savez_compressed`` via a same-directory temp file + ``os.replace``.

    A crash mid-write can no longer leave a truncated archive at the
    destination: readers see either the old complete file or the new one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.tmp-", suffix=".npz", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _open_npz(path: Path):
    """``np.load`` with truncation/corruption mapped to :class:`IndexError_`.

    The archive is probed with an explicitly closed handle first:
    ``np.load`` opens the file itself and, on a corrupt zip, raises with
    that handle still open — an fd leak the ``tests-resource`` CI leg
    (``PYTHONWARNINGS=error::ResourceWarning``) flags.
    """

    def _reject(exc):
        raise IndexError_(
            f"{path} is not a readable index archive (truncated or "
            f"corrupt?): {exc}"
        ) from None

    try:
        with open(path, "rb") as probe:
            zipfile.ZipFile(probe).infolist()
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        _reject(exc)
    try:
        return np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        _reject(exc)


# -- header + array validation -------------------------------------------------

def _check_version(version, path) -> int:
    try:
        version = int(version)
    except (TypeError, ValueError):
        raise IndexError_(
            f"{path} has a malformed format version {version!r}"
        ) from None
    if version > FORMAT_VERSION:
        raise IndexError_(
            f"{path} has format version {version}, newer than supported "
            f"{FORMAT_VERSION}"
        )
    if version < MIN_FORMAT_VERSION:
        raise IndexError_(
            f"{path} has format version {version}, older than supported "
            f"{MIN_FORMAT_VERSION}"
        )
    return version


def _check_header(data, magic: str, path) -> int:
    """Validate magic + version of an ``.npz`` archive; returns the version."""
    if "magic" not in data or str(data["magic"]) != magic:
        raise IndexError_(f"{path} is not a {magic} file")
    if "version" not in data:
        raise IndexError_(
            f"{path} has a {magic} magic but no format version "
            "(truncated or hand-built archive?)"
        )
    return _check_version(data["version"], path)


def _take_array(data, name: str, expected_dtype, path) -> np.ndarray:
    """Fetch array ``name`` with presence + dtype/endianness validation.

    Mismatches are rejected, never converted: an implicit ``.astype`` copy
    would both hide corruption and defeat zero-copy mmap loads.
    """
    if name not in data:
        raise IndexError_(f"{path} is missing required array {name!r}")
    arr = data[name]
    expected = np.dtype(expected_dtype)
    if arr.dtype != expected:
        raise IndexError_(
            f"{path}: array {name!r} has dtype {arr.dtype} (expected "
            f"{expected}); dtype/endianness mismatches are rejected on "
            "load rather than silently copied"
        )
    return arr


def _take_scalar(data, name: str, path) -> int:
    if name not in data:
        raise IndexError_(f"{path} is missing required field {name!r}")
    return int(data[name])


# -- k-mer index (.npz) --------------------------------------------------------

def save_kmer_index(index: KmerSeedIndex, path) -> Path:
    """Write a :class:`KmerSeedIndex` to ``path`` (.npz, atomic).

    Returns the actual path written (``.npz`` suffix normalized).
    """
    path = npz_path(path)
    _atomic_savez(
        path,
        magic=np.array(_KMER_MAGIC),
        version=np.array(FORMAT_VERSION),
        seed_length=np.array(index.seed_length),
        step=np.array(index.step),
        region_start=np.array(index.region_start),
        region_end=np.array(index.region_end),
        keys=np.ascontiguousarray(index.keys, dtype=np.int64),
        locs=np.ascontiguousarray(index.locs, dtype=np.int64),
    )
    return path


def load_kmer_index(path) -> KmerSeedIndex:
    """Read a :class:`KmerSeedIndex`; validates magic/version/consistency."""
    path = _resolve_npz_for_load(path)
    with _open_npz(path) as data:
        _check_header(data, _KMER_MAGIC, path)
        index = KmerSeedIndex(
            seed_length=_take_scalar(data, "seed_length", path),
            step=_take_scalar(data, "step", path),
            region_start=_take_scalar(data, "region_start", path),
            region_end=_take_scalar(data, "region_end", path),
            keys=_take_array(data, "keys", np.int64, path),
            locs=_take_array(data, "locs", np.int64, path),
        )
    try:
        index.check()
    except IndexIntegrityError as exc:
        raise IndexIntegrityError(
            f"corrupt k-mer index in {path}: {exc}", field=exc.field, path=path
        ) from None
    return index


# -- suffix-array searcher (.npz) ----------------------------------------------

def save_searcher(searcher: SuffixArraySearcher, path) -> Path:
    """Write a suffix-array searcher (reference + SA + LCP) to ``path``.

    Atomic like :func:`save_kmer_index`; returns the normalized path.
    """
    path = npz_path(path)
    _atomic_savez(
        path,
        magic=np.array(_SA_MAGIC),
        version=np.array(FORMAT_VERSION),
        sparseness=np.array(searcher.sparseness),
        prefix_table_k=np.array(searcher.prefix_table_k),
        reference=np.ascontiguousarray(searcher.reference, dtype=np.uint8),
        sa=np.ascontiguousarray(searcher.sa, dtype=np.int64),
        lcp=np.ascontiguousarray(searcher.lcp, dtype=np.int64),
    )
    return path


def _assemble_searcher(
    reference: np.ndarray,
    sa: np.ndarray,
    lcp: np.ndarray,
    sparseness: int,
    prefix_table_k: int,
    pt_lo: np.ndarray | None = None,
    pt_hi: np.ndarray | None = None,
) -> SuffixArraySearcher:
    """Reconstruct a searcher from stored parts without re-sorting."""
    searcher = SuffixArraySearcher.__new__(SuffixArraySearcher)
    searcher.reference = reference
    searcher.sparseness = sparseness
    searcher.sa = sa
    searcher.lcp = lcp
    searcher.m = int(sa.size)
    searcher.prefix_table_k = prefix_table_k
    if pt_lo is not None and pt_hi is not None:
        searcher._pt_lo = pt_lo
        searcher._pt_hi = pt_hi
    elif prefix_table_k > 0:
        searcher._build_prefix_table()
    else:
        searcher._pt_lo = searcher._pt_hi = None
    return searcher


def verify_searcher(searcher: SuffixArraySearcher, path) -> None:
    """Check a loaded searcher's SA against its stored reference."""
    from repro.index.suffix_array import verify_suffix_array

    if searcher.sparseness == 1:
        if not verify_suffix_array(searcher.reference, searcher.sa):
            raise IndexIntegrityError(
                f"corrupt suffix array in {path}", field="sa", path=path
            )
    else:
        expect = np.arange(0, searcher.reference.size, searcher.sparseness)
        if not np.array_equal(np.sort(searcher.sa), expect):
            raise IndexIntegrityError(
                f"corrupt sparse suffix array in {path}", field="sa", path=path
            )


def load_searcher(path) -> SuffixArraySearcher:
    """Read a searcher; the SA is verified against the stored reference."""
    path = _resolve_npz_for_load(path)
    with _open_npz(path) as data:
        _check_header(data, _SA_MAGIC, path)
        searcher = _assemble_searcher(
            reference=_take_array(data, "reference", np.uint8, path),
            sa=_take_array(data, "sa", np.int64, path),
            lcp=_take_array(data, "lcp", np.int64, path),
            sparseness=_take_scalar(data, "sparseness", path),
            prefix_table_k=_take_scalar(data, "prefix_table_k", path),
        )
    verify_searcher(searcher, path)
    return searcher


# -- mmap bundle layout (FORMAT_VERSION >= 2) ----------------------------------
#
# A *bundle* is a directory:
#
#     <bundle>/
#       meta.json      magic, version, scalars, per-array dtype/shape manifest
#       <name>.npy     one plain .npy per array (mmap-able)
#
# Bundles are immutable once visible: the writer assembles a temp directory
# next to the destination and renames it into place, so a reader either
# sees a complete bundle or none at all. That is what lets the tiered
# store's warm path skip locks entirely on reads.

def _write_bundle(
    dir_path, magic: str, scalars: dict, arrays: dict[str, np.ndarray]
) -> Path:
    dir_path = Path(dir_path)
    dir_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(
        prefix=f".{dir_path.name}.tmp-", dir=dir_path.parent
    ))
    try:
        manifest = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            np.save(tmp / f"{name}.npy", arr)
            manifest[name] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "nbytes": int(arr.nbytes),
            }
        meta = {
            "magic": magic,
            "version": FORMAT_VERSION,
            "scalars": {k: int(v) for k, v in scalars.items()},
            "arrays": manifest,
        }
        # meta.json is written last inside the temp dir; its presence (after
        # the rename) marks the bundle complete.
        (tmp / _META_NAME).write_text(json.dumps(meta, indent=1, sort_keys=True))
        try:
            os.replace(tmp, dir_path)
        except OSError:
            # Lost a publish race (destination exists): keep the winner.
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return dir_path


def _read_bundle(
    dir_path, magic: str, *, mmap: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    dir_path = Path(dir_path)
    meta_path = dir_path / _META_NAME
    if not meta_path.is_file():
        raise FileNotFoundError(f"{dir_path} is not an index bundle (no meta.json)")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise IndexError_(f"{dir_path}: unreadable bundle manifest: {exc}") from None
    if meta.get("magic") != magic:
        raise IndexError_(f"{dir_path} is not a {magic} bundle")
    if "version" not in meta:
        raise IndexError_(f"{dir_path} bundle manifest has no format version")
    _check_version(meta["version"], dir_path)
    arrays = {}
    mode = "r" if mmap else None
    for name, spec in meta.get("arrays", {}).items():
        file = dir_path / f"{name}.npy"
        try:
            arr = np.load(file, mmap_mode=mode, allow_pickle=False)
        except FileNotFoundError:
            raise IndexError_(
                f"{dir_path}: bundle is missing array file {name}.npy"
            ) from None
        except (ValueError, OSError, EOFError) as exc:
            raise IndexError_(
                f"{dir_path}: unreadable array {name}.npy (truncated?): {exc}"
            ) from None
        if arr.dtype.str != spec["dtype"] or list(arr.shape) != spec["shape"]:
            raise IndexError_(
                f"{dir_path}: array {name!r} is {arr.dtype.str}{list(arr.shape)} "
                f"on disk but the manifest says {spec['dtype']}{spec['shape']}"
            )
        arrays[name] = arr
    return meta, arrays


def save_kmer_bundle(index: KmerSeedIndex, dir_path) -> Path:
    """Write a :class:`KmerSeedIndex` as an mmap-able bundle directory."""
    return _write_bundle(
        dir_path,
        _KMER_MAGIC,
        scalars=dict(
            seed_length=index.seed_length,
            step=index.step,
            region_start=index.region_start,
            region_end=index.region_end,
        ),
        arrays=dict(
            keys=np.asarray(index.keys, dtype=np.int64),
            locs=np.asarray(index.locs, dtype=np.int64),
        ),
    )


def load_kmer_bundle(
    dir_path, *, mmap: bool = True, check: bool = False
) -> KmerSeedIndex:
    """Load a k-mer index bundle; ``mmap=True`` maps the arrays zero-copy.

    A bundle without ``keys`` (the pre-version-3 dense layout) is rejected
    as invalid. ``check=True`` additionally runs the structural self-check
    (it touches every page, so the warm-tier store leaves it off and relies
    on the manifest + dtype/shape validation instead).
    """
    meta, arrays = _read_bundle(dir_path, _KMER_MAGIC, mmap=mmap)
    scalars = meta["scalars"]
    index = KmerSeedIndex(
        seed_length=int(scalars["seed_length"]),
        step=int(scalars["step"]),
        region_start=int(scalars["region_start"]),
        region_end=int(scalars["region_end"]),
        keys=_take_array(arrays, "keys", np.int64, dir_path),
        locs=_take_array(arrays, "locs", np.int64, dir_path),
    )
    if check:
        try:
            index.check()
        except IndexIntegrityError as exc:
            raise IndexIntegrityError(
                f"corrupt k-mer index in {dir_path}: {exc}",
                field=exc.field, path=dir_path,
            ) from None
    return index


def save_searcher_bundle(searcher: SuffixArraySearcher, dir_path) -> Path:
    """Write a searcher as an mmap-able bundle (prefix table included).

    Unlike the ``.npz`` layout, the bundle persists the prefix-table
    arrays, so a warm load skips both suffix sorting *and* the table
    rebuild.
    """
    arrays = dict(
        reference=np.asarray(searcher.reference, dtype=np.uint8),
        sa=np.asarray(searcher.sa, dtype=np.int64),
        lcp=np.asarray(searcher.lcp, dtype=np.int64),
    )
    if searcher._pt_lo is not None:
        arrays["pt_lo"] = np.asarray(searcher._pt_lo, dtype=np.int64)
        arrays["pt_hi"] = np.asarray(searcher._pt_hi, dtype=np.int64)
    return _write_bundle(
        dir_path,
        _SA_MAGIC,
        scalars=dict(
            sparseness=searcher.sparseness,
            prefix_table_k=searcher.prefix_table_k,
        ),
        arrays=arrays,
    )


def load_searcher_bundle(
    dir_path, *, mmap: bool = True, verify: bool = False
) -> SuffixArraySearcher:
    """Load a searcher bundle; ``verify=True`` re-checks the SA ordering.

    Verification touches every page (it is an O(n log n) scan), so the
    store's warm tier leaves it off — bundles are immutable once published
    and validated structurally on every load either way.
    """
    meta, arrays = _read_bundle(dir_path, _SA_MAGIC, mmap=mmap)
    scalars = meta["scalars"]
    prefix_table_k = int(scalars["prefix_table_k"])
    pt_lo = pt_hi = None
    if "pt_lo" in arrays:
        pt_lo = _take_array(arrays, "pt_lo", np.int64, dir_path)
        pt_hi = _take_array(arrays, "pt_hi", np.int64, dir_path)
    searcher = _assemble_searcher(
        reference=_take_array(arrays, "reference", np.uint8, dir_path),
        sa=_take_array(arrays, "sa", np.int64, dir_path),
        lcp=_take_array(arrays, "lcp", np.int64, dir_path),
        sparseness=int(scalars["sparseness"]),
        prefix_table_k=prefix_table_k,
        pt_lo=pt_lo,
        pt_hi=pt_hi,
    )
    if verify:
        verify_searcher(searcher, dir_path)
    return searcher
