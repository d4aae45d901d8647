"""Shared test fixtures and hypothesis strategies."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

# Kernel tests can take the `sanitized_device` / `simt_sanitizer` fixtures to
# run launches under the SIMT race detector (docs/analysis.md); host tests
# can take `lock_tracker` (or set REPRO_LOCK_TRACKER=1 — CI's
# tests-locktracker leg) to run under the runtime lock-order sanitizer;
# IPC-heavy tests can take `resource_tracker` (or set
# REPRO_RESOURCE_TRACKER=1 — CI's tests-resource leg) to run under the
# runtime shm/mmap/file-lock leak audit.
pytest_plugins = [
    "repro.analysis.pytest_sanitizer",
    "repro.analysis.pytest_lock_tracker",
    "repro.analysis.pytest_resource_tracker",
]

# NumPy batch sizes make per-example wall time noisy; correctness, not
# latency, is what these properties check.
hyp_settings.register_profile("repro", deadline=None)
hyp_settings.load_profile("repro")


def dna(min_size: int = 0, max_size: int = 120, alphabet: int = 4):
    """Hypothesis strategy for DNA code arrays.

    Small alphabets (2-3 letters) make matches — and therefore edge cases —
    far denser, so most property tests draw from them.
    """
    return st.lists(
        st.integers(0, alphabet - 1), min_size=min_size, max_size=max_size
    ).map(lambda xs: np.array(xs, dtype=np.uint8))


def dense_ptrs(keys, seed_length):
    """The dense ``ptrs`` table of sorted seed ``keys`` (Algorithm 1's
    layout): the slot bounds of every seed value."""
    return np.searchsorted(keys, np.arange(4**seed_length + 1, dtype=np.int64))


def plant_dense_bundle(bundle, codes, *, seed_length, step, region_end=None):
    """Write ``bundle`` in the version-2 k-mer layout: a dense ``ptrs``
    table and a ``present`` bitset beside ``locs``, no ``keys``."""
    from repro.index.kmer_index import build_kmer_index

    idx = build_kmer_index(codes, seed_length=seed_length, step=step,
                           region_end=region_end)
    ptrs = dense_ptrs(idx.keys, seed_length)
    arrays = {
        "ptrs": ptrs,
        "locs": idx.locs,
        "present": np.packbits(np.diff(ptrs) > 0, bitorder="little"),
    }
    bundle.mkdir(parents=True)
    for name, arr in arrays.items():
        np.save(bundle / f"{name}.npy", arr)
    meta = {
        "magic": "repro-kmer-index",
        "version": 2,
        "scalars": {"seed_length": seed_length, "step": step,
                    "region_start": idx.region_start,
                    "region_end": idx.region_end},
        "arrays": {name: {"dtype": arr.dtype.str, "shape": list(arr.shape),
                          "nbytes": int(arr.nbytes)}
                   for name, arr in arrays.items()},
    }
    (bundle / "meta.json").write_text(json.dumps(meta))
    return bundle


@st.composite
def dna_pair(draw, max_size: int = 100, alphabet: int = 3):
    """A (reference, query) pair, sometimes with planted shared content."""
    ref = draw(dna(min_size=1, max_size=max_size, alphabet=alphabet))
    qry = draw(dna(min_size=1, max_size=max_size, alphabet=alphabet))
    if draw(st.booleans()) and ref.size >= 4:
        # splice a reference segment into the query to guarantee matches
        lo = draw(st.integers(0, ref.size - 2))
        hi = draw(st.integers(lo + 1, ref.size))
        at = draw(st.integers(0, qry.size))
        qry = np.concatenate([qry[:at], ref[lo:hi], qry[at:]]).astype(np.uint8)
    return ref, qry


def naive_mems(reference: np.ndarray, query: np.ndarray, min_length: int):
    """Second, loop-based oracle (independent of repro.core.reference)."""
    out = set()
    nr, nq = len(reference), len(query)
    for r in range(nr):
        for q in range(nq):
            if reference[r] != query[q]:
                continue
            if r > 0 and q > 0 and reference[r - 1] == query[q - 1]:
                continue  # not left-maximal
            length = 0
            while (
                r + length < nr
                and q + length < nq
                and reference[r + length] == query[q + length]
            ):
                length += 1
            if length >= min_length:
                out.add((r, q, length))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def homologous_pair():
    """A realistic mid-size pair with repeats and homology (session cached)."""
    from repro.sequence.synthetic import markov_dna, plant_homology, plant_repeats

    ref = plant_repeats(
        markov_dna(20_000, seed=91),
        seed=92,
        n_families=3,
        family_length=(40, 120),
        copies_per_family=(15, 60),
        copy_divergence=0.02,
    )
    qry = plant_homology(ref, 15_000, seed=93, coverage=0.5, divergence=0.02)
    return ref, qry
