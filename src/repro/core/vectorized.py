"""Vectorized (NumPy) implementation of the GPUMEM tile stage.

This is the production fast path: it finds the same MEM set as the
simulated GPU kernels, as whole-array operations instead of per-thread
programs. The two backends are tested to produce identical MEM sets.

Key semantics (DESIGN.md §5):

- Only the *index* is tile-local. Reads of ``R``/``Q`` may cross tile
  borders (both sequences are resident in global memory, 2-bit packed).
  ``reference``/``query`` are code arrays or
  :class:`~repro.index.compare.PackedCodes`; the pipeline passes the
  packings it made once per session and per run.
- Each MEM is extended once, from its leftmost sampled seed hit. Query
  seeds sit at every position and reference seeds on one global Δs grid,
  so a hit whose left run is at least Δs has a twin hit Δs to its left
  inside the same MEM. Only hits whose left run is below Δs are extended,
  and each MEM of length ≥ L has exactly one of them (DESIGN.md §5
  note 7). No tile box clips the extension and no tile's output needs
  deduplication or a host merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tiling import Tile
from repro.index.compare import common_prefix_len, common_suffix_len
from repro.index.kmer_index import KmerSeedIndex
from repro.types import empty_triplets, make_triplets


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ``[starts[i], starts[i]+counts[i])`` ranges.

    Returns ``(flat, owner)``: the concatenated range elements and, for each,
    the index ``i`` of the range it came from. The standard vectorized
    repeat/cumsum construction.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy()
    owner = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    # within-range offsets: global arange minus each range's running start
    run = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - run[owner]
    return starts[owner] + offsets, owner


@dataclass
class TileStageResult:
    """Output of one tile: the MEMs whose leftmost sampled seed hit is in it."""

    mems: np.ndarray
    n_candidates: int = 0
    n_query_seeds_with_hits: int = 0
    n_query_seeds: int = 0


def query_seed_range(tile: Tile, n_query: int, seed_length: int) -> tuple[int, int]:
    """``[q_lo, q_hi)``: the tile's query positions whose seed fits in the query."""
    return tile.q_start, min(tile.q_end, n_query - seed_length + 1)


def tile_candidates(
    query_kmers: np.ndarray,
    tile: Tile,
    index: KmerSeedIndex,
    n_query: int,
    seed_length: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed-hit candidate pairs for one tile.

    Query seeds are taken at *every* position of the tile's query range
    whose window fits in the query (the reference side carries the Δs
    sparsification — §III-B2 processes all ``w · τ · n_block`` query
    locations of a block). Each seed is first tested against the row's
    ``present`` bitset; only the seeds that pass read ``ptrs``. Returns
    ``(r, q, counts)`` with ``counts`` the hit count of each passing seed.
    """
    q_lo, q_hi = query_seed_range(tile, n_query, seed_length)
    if q_hi <= q_lo:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    seeds = query_kmers[q_lo:q_hi]
    hit = index.present_indices(seeds)
    starts, counts = index.lookup(seeds[hit])
    flat, owner = expand_ranges(starts, counts)
    r = index.locs[flat]
    q = q_lo + hit[owner]
    return r, q, counts


def extend_and_classify(
    reference: np.ndarray,
    query: np.ndarray,
    r: np.ndarray,
    q: np.ndarray,
    seed_length: int,
    step: int,
    min_length: int,
) -> np.ndarray:
    """Keep each MEM's leftmost sampled seed hit and extend it to the MEM.

    For each aligned seed pair ``(r, q)`` (``r`` on the global ``step``
    grid):

    - extend left with ``limit = step``; a hit whose left run reaches
      ``step`` is not the leftmost sampled hit of its MEM and is dropped;
    - the survivors' left runs are exact; extend them right from the seed
      end, unclipped;
    - triplets of length ≥ ``min_length`` are the MEMs, each exactly once.
    """
    if r.size == 0:
        return empty_triplets()
    le = common_suffix_len(reference, query, r, q, limit=step)
    first = le < step
    r, q, le = r[first], q[first], le[first]
    re = common_prefix_len(reference, query, r + seed_length, q + seed_length)
    length = le + seed_length + re
    keep = length >= min_length
    le = le[keep]
    return make_triplets(r[keep] - le, q[keep] - le, length[keep])


def stage_tile(
    reference: np.ndarray,
    query: np.ndarray,
    query_kmers: np.ndarray,
    tile: Tile,
    index: KmerSeedIndex,
    min_length: int,
) -> TileStageResult:
    """Full tile stage: candidates → leftmost-hit extension → MEMs."""
    r, q, counts = tile_candidates(
        query_kmers, tile, index, len(query), index.seed_length
    )
    mems = extend_and_classify(
        reference, query, r, q, index.seed_length, index.step, min_length
    )
    q_lo, q_hi = query_seed_range(tile, len(query), index.seed_length)
    return TileStageResult(
        mems=mems,
        n_candidates=int(r.size),
        n_query_seeds=max(0, q_hi - q_lo),
        n_query_seeds_with_hits=int((counts > 0).sum()),
    )
