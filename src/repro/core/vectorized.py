"""Vectorized (NumPy) implementation of the GPUMEM match stage.

This is the production fast path: it finds the same MEM set as the
simulated GPU kernels, as whole-array operations instead of per-thread
programs. The two backends are tested to produce identical MEM sets.

Key semantics (DESIGN.md §5):

- One sorted-key index covers the whole reference
  (:class:`~repro.index.kmer_index.KmerSeedIndex`). A unit of work is a
  band of query seed positions matched against all of it; there are no
  tile rows. ``reference``/``query`` are code arrays or
  :class:`~repro.index.compare.PackedCodes`; the pipeline passes the
  packings it made once per session and per run.
- The band's ℓs-mers are argsorted once and joined to the index keys by
  ``searchsorted`` (:func:`seed_hits`). The hits are then expanded in
  chunks of at most :data:`~repro.index.compare.BATCH` candidates, cut on
  the running sum of hit counts (:func:`candidate_chunks`), so the stage
  holds ``O(BATCH)`` candidates at a time on any input.
- Each MEM is extended once, from its leftmost sampled seed hit. Query
  seeds sit at every position and reference seeds on one global Δs grid,
  so a hit whose left run is at least Δs has a twin hit Δs to its left
  inside the same MEM. Only hits whose left run is below Δs are extended,
  and each MEM of length ≥ L has exactly one of them (DESIGN.md §5
  note 7). Chunk outputs are therefore final and need no merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.compare import BATCH, common_prefix_len, common_suffix_len
from repro.index.kmer_index import KmerSeedIndex
from repro.types import concat_triplets, empty_triplets, make_triplets


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
class SeedHits:
    """A query band's seeds joined to the index, in key order.

    Only seeds with at least one hit are kept. Seed ``i`` owns candidates
    ``ends[i] - counts[i] .. ends[i] - 1`` of the band's flat candidate
    list: ``(index.locs[starts[i] + j], q[i])`` for ``j < counts[i]``.
    """

    q: np.ndarray  # query position of each seed
    starts: np.ndarray  # its first slot in ``index.locs``
    counts: np.ndarray  # its number of hits
    ends: np.ndarray  # running sum of ``counts``
    #: Query seeds probed (hits or not).
    n_seeds: int = 0

    @property
    def n_candidates(self) -> int:
        return int(self.ends[-1]) if self.ends.size else 0


def seed_hits(band_kmers: np.ndarray, q_lo: int, index: KmerSeedIndex) -> SeedHits:
    """Sort the band's seeds once and look them all up in ``index``.

    ``band_kmers[i]`` is the seed at query position ``q_lo + i``.
    """
    band_kmers = np.asarray(band_kmers, dtype=np.int64)
    order = np.argsort(band_kmers)
    starts, counts = index.lookup(band_kmers[order])
    hit = np.flatnonzero(counts)
    counts = counts[hit]
    return SeedHits(
        q=q_lo + order[hit],
        starts=starts[hit],
        counts=counts,
        ends=np.cumsum(counts),
        n_seeds=int(band_kmers.size),
    )


def candidate_chunks(n_candidates: int, size: int = BATCH) -> list[tuple[int, int]]:
    """``[lo, hi)`` cuts of the flat candidate list, each at most ``size``."""
    return [(lo, min(lo + size, n_candidates)) for lo in range(0, n_candidates, size)]


def tile_candidates(
    hits: SeedHits, index: KmerSeedIndex, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates ``lo .. hi - 1`` of the band as aligned seed pairs ``(r, q)``.

    A cut may fall inside one seed's hit range; the first and last seed of
    the chunk contribute only their part. Pairs come key by key, each
    seed's ``r`` ascending.
    """
    if hi <= lo:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy()
    a = int(np.searchsorted(hits.ends, lo, side="right"))
    b = int(np.searchsorted(hits.ends, hi, side="left")) + 1
    starts = hits.starts[a:b].copy()
    counts = hits.counts[a:b].copy()
    skip = lo - (int(hits.ends[a]) - int(counts[0]))
    starts[0] += skip
    counts[0] -= skip
    counts[-1] -= int(hits.ends[b - 1]) - hi
    flat, owner = expand_ranges(starts, counts)
    return index.locs[flat], hits.q[a + owner]


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


@dataclass
class TileStageResult:
    """Output of one query band: the MEMs whose leftmost sampled hit it holds."""

    mems: np.ndarray
    n_candidates: int = 0
    n_query_seeds_with_hits: int = 0
    n_query_seeds: int = 0
    #: Candidate chunks run and the largest one (≤ ``BATCH``).
    n_chunks: int = 0
    max_chunk: int = 0


def stage_tile(
    reference: np.ndarray,
    query: np.ndarray,
    band_kmers: np.ndarray,
    index: KmerSeedIndex,
    min_length: int,
    q_lo: int = 0,
) -> TileStageResult:
    """Match one band of query seeds against the whole index.

    ``band_kmers[i]`` is the seed at query position ``q_lo + i`` (the
    serial pipeline passes the whole query's codes with ``q_lo = 0``).
    Candidates are generated and extended chunk by chunk.
    """
    hits = seed_hits(band_kmers, q_lo, index)
    chunks = candidate_chunks(hits.n_candidates)
    parts = []
    for lo, hi in chunks:
        r, q = tile_candidates(hits, index, lo, hi)
        parts.append(extend_and_classify(
            reference, query, r, q, index.seed_length, index.step, min_length
        ))
    return TileStageResult(
        mems=concat_triplets(parts),
        n_candidates=hits.n_candidates,
        n_query_seeds=hits.n_seeds,
        n_query_seeds_with_hits=int(hits.q.size),
        n_chunks=len(chunks),
        max_chunk=max((hi - lo for lo, hi in chunks), default=0),
    )
