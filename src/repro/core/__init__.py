"""GPUMEM core — the paper's contribution.

Public surface:

- :class:`~repro.core.params.GpuMemParams` — validated parameter set
  (Table I symbols), including the Eq. (1) sparsity constraint.
- :class:`~repro.core.matcher.GpuMem` — the end-to-end matcher over either
  backend (``"vectorized"`` production path or ``"simulated"`` SIMT path).
- :func:`~repro.core.matcher.find_mems` — one-call convenience API.
- :class:`~repro.core.session.MemSession` — reusable index session for
  many-query workloads (build the reference's row indexes once).
- :class:`~repro.core.pipeline.Pipeline` /
  :class:`~repro.core.pipeline.PipelineStats` — the staged extraction
  engine and its typed statistics. ``GpuMemParams(executor=...)`` runs its
  independent tile rows in-process (``"serial"``) or as row bands on the
  worker processes of :mod:`repro.core.procpool` (``"process"``).
- :class:`~repro.core.serve.MemServer` — long-lived serving front end with
  admission control and graceful drain (the ``gpumem serve`` engine).
- :func:`~repro.core.reference.brute_force_mems` — independent ground truth.
"""

from repro.core.batch import BatchError, BatchResult, BatchRunner, find_mems_batch
from repro.core.chaining import Chain, chain_anchors
from repro.core.distance import distance_matrix, mem_coverage, mem_distance
from repro.core.mapping import ReadMapper, ReadMapping
from repro.core.matcher import GpuMem, find_mems
from repro.core.params import GpuMemParams
from repro.core.pipeline import Pipeline, PipelineStats
from repro.core.reference import brute_force_mems
from repro.core.serve import MemServer, ServeResult
from repro.core.session import (
    MemSession,
    clear_session_cache,
    get_session,
)
from repro.core.synteny import SyntenyBlock, block_coverage, synteny_blocks
from repro.core.variants import (
    StrandedMems,
    find_mems_both_strands,
    find_mums,
    find_rare_mems,
)

__all__ = [
    "GpuMemParams",
    "GpuMem",
    "find_mems",
    "brute_force_mems",
    "Pipeline",
    "PipelineStats",
    "MemSession",
    "BatchRunner",
    "BatchResult",
    "BatchError",
    "find_mems_batch",
    "get_session",
    "clear_session_cache",
    "MemServer",
    "ServeResult",
    "find_mums",
    "find_rare_mems",
    "find_mems_both_strands",
    "StrandedMems",
    "Chain",
    "chain_anchors",
    "SyntenyBlock",
    "synteny_blocks",
    "block_coverage",
    "ReadMapper",
    "ReadMapping",
    "mem_coverage",
    "mem_distance",
    "distance_matrix",
]
