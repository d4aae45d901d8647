"""GPUMEM reproduction package.

This package reproduces *Extracting Maximal Exact Matches on GPU*
(Abu-Doleh, Kaya, Abouelhoda, Çatalyürek — IPDPS Workshops 2014).

It provides:

- :mod:`repro.sequence` — DNA sequence substrate (2-bit packing, FASTA,
  synthetic genome generation mirroring the paper's Table II datasets).
- :mod:`repro.index` — index-structure substrate (suffix array, LCP, BWT,
  FM-index, sparse suffix array, enhanced suffix array, k-mer index).
- :mod:`repro.gpu` — a functional SIMT GPU simulator with a warp-level cost
  model, substituting for the paper's Tesla K20c.
- :mod:`repro.core` — GPUMEM itself: a sorted-key sampled seed index with
  chunked seed matching (vectorized backend), and on the simulated GPU the
  paper's tiled 2-D search-space partitioning, ``locs``/``ptrs`` seed index
  (Algorithm 1), proactive load balancing (Algorithm 2), conflict-free
  parallel combine (Algorithm 3), and the in-block/out-block/in-tile/out-tile
  staging.
- :mod:`repro.baselines` — from-scratch implementations of the four CPU
  comparators: MUMmer-class full suffix array, sparseMEM, essaMEM, slaMEM.
- :mod:`repro.bench` — the experiment harness regenerating every table and
  figure of the paper's evaluation section.
- :mod:`repro.obs` — opt-in tracing/metrics: pass ``tracer=repro.Tracer()``
  to any entry point and export a Chrome-trace (docs/observability.md).

Quickstart::

    import repro

    ref = repro.random_dna(100_000, seed=1)
    qry = repro.mutate(ref, rate=0.02, seed=2)
    mems = repro.find_mems(ref, qry, min_length=40)
    for r, q, length in mems[:5]:
        print(r, q, length)
"""

from __future__ import annotations

from repro._version import __version__
from repro.core import (
    BatchError,
    BatchResult,
    BatchRunner,
    GpuMem,
    GpuMemParams,
    MemSession,
    Pipeline,
    PipelineStats,
    StrandedMems,
    brute_force_mems,
    find_mems,
    find_mems_both_strands,
    find_mums,
    find_rare_mems,
    get_session,
)
from repro.errors import (
    GpuMemError,
    InvalidParameterError,
    InvalidSequenceError,
    MemoryBudgetError,
)
from repro.obs import MetricsRegistry, Tracer
from repro.sequence import (
    decode,
    encode,
    mutate,
    random_dna,
    reverse_complement,
)
from repro.types import MEM_DTYPE, TRIPLET_DTYPE, MatchSet, sort_mems

__all__ = [
    "__version__",
    "GpuMemError",
    "InvalidParameterError",
    "InvalidSequenceError",
    "MemoryBudgetError",
    "MEM_DTYPE",
    "TRIPLET_DTYPE",
    "MatchSet",
    "sort_mems",
    "encode",
    "decode",
    "random_dna",
    "mutate",
    "reverse_complement",
    "GpuMem",
    "GpuMemParams",
    "MemSession",
    "BatchRunner",
    "BatchResult",
    "BatchError",
    "Pipeline",
    "PipelineStats",
    "get_session",
    "find_mems",
    "brute_force_mems",
    "find_mums",
    "find_rare_mems",
    "find_mems_both_strands",
    "StrandedMems",
    "Tracer",
    "MetricsRegistry",
]
