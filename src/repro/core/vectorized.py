"""Vectorized (NumPy) implementation of the GPUMEM tile stage.

This is the production fast path: it computes exactly what the simulated GPU
kernels compute per tile — seed-hit candidate generation, maximal extension
clipped to the tile box, and the in-tile / out-tile split — but expressed as
whole-array operations instead of per-thread programs. The two backends are
tested to produce identical MEM sets.

Key semantics (DESIGN.md §5):

- Only the *index* is tile-local. Reads of ``R``/``Q`` may cross tile
  borders (both sequences are resident in global memory, 2-bit packed).
  ``reference``/``query`` are code arrays or
  :class:`~repro.index.compare.PackedCodes`; the pipeline passes the
  packings it made once per session and per run.
- A triplet whose maximal in-tile extension reaches the tile box is marked
  *touching* and forwarded to the host stage regardless of length; in-tile
  MEMs (mismatch-delimited strictly inside the box) are final and filtered
  by ``min_length`` immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tiling import Tile
from repro.index.compare import common_prefix_len, common_suffix_len
from repro.index.kmer_index import KmerSeedIndex
from repro.types import empty_triplets, make_triplets, unique_mems


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
    """Output of one tile: final in-tile MEMs + boundary-touching fragments."""

    in_tile: np.ndarray
    out_tile: np.ndarray
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
    tile: Tile,
    r: np.ndarray,
    q: np.ndarray,
    seed_length: int,
    min_length: int,
) -> TileStageResult:
    """Maximally extend candidates within the tile box and split the output.

    For each aligned seed pair ``(r, q)``:

    - extend left up to the box (``limit = min(r - r0, q - q0)``); hitting
      the limit marks the triplet *touching*;
    - extend right from the seed end likewise;
    - mismatch-delimited triplets of length ≥ ``min_length`` are in-tile
      MEMs (already globally maximal — reads cross the border, so a
      mismatch is a real mismatch); touching triplets go to the host stage
      whatever their length (DESIGN.md §5 note 1).
    """
    n_cand = r.size
    if n_cand == 0:
        return TileStageResult(in_tile=empty_triplets(), out_tile=empty_triplets())

    # Left extension. The *true* maximal extension is computed (reads may
    # cross the border); a triplet is touching only if the extension
    # strictly crosses the box, so a mismatch that happens to sit exactly on
    # the boundary still yields a final in-tile MEM.
    dl = np.minimum(r - tile.r_start, q - tile.q_start)
    le = common_suffix_len(reference, query, r, q)
    touching_left = le > dl
    le = np.minimum(le, dl)

    # Right extension beyond the seed, same precise-touching rule. ``cap``
    # can be negative when the seed window itself sticks out of the box.
    cap = np.minimum(tile.r_end - r, tile.q_end - q) - seed_length
    re = common_prefix_len(reference, query, r + seed_length, q + seed_length)
    touching_right = re > cap
    re = np.minimum(re, np.maximum(cap, 0))

    length = seed_length + le + re
    trips = make_triplets(r - le, q - le, length)
    touching = touching_left | touching_right

    in_tile = unique_mems(trips[~touching & (length >= min_length)])
    out_tile = unique_mems(trips[touching])
    return TileStageResult(in_tile=in_tile, out_tile=out_tile, n_candidates=n_cand)


def stage_tile(
    reference: np.ndarray,
    query: np.ndarray,
    query_kmers: np.ndarray,
    tile: Tile,
    index: KmerSeedIndex,
    min_length: int,
) -> TileStageResult:
    """Full tile stage: candidates → extension → in/out split."""
    r, q, counts = tile_candidates(
        query_kmers, tile, index, len(query), index.seed_length
    )
    result = extend_and_classify(
        reference, query, tile, r, q, index.seed_length, min_length
    )
    q_lo, q_hi = query_seed_range(tile, len(query), index.seed_length)
    result.n_query_seeds = max(0, q_hi - q_lo)
    result.n_query_seeds_with_hits = int((counts > 0).sum())
    return result
