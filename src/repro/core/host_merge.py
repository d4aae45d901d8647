"""Host-side merge of out-tile triplets (paper §III-C2).

The per-tile stages forward every boundary-touching fragment here. The paper
sorts the (short) global out-tile list by ``r − q`` (ties on ``q``) on the
host and scans it to produce the final, longest MEMs. We do the same —
vectorized — with one added step from DESIGN.md §5 note 2: after the
diagonal chain-combine, each combined triplet is *re-extended to global
maximality*, because a MEM crossing a tile border may have had no aligned
sampled seed inside one of the tiles it crosses, leaving that fragment
missing from the chain. ``reference``/``query`` are code arrays or
:class:`~repro.index.compare.PackedCodes`: only the re-extension reads them.
"""

from __future__ import annotations

import numpy as np

from repro.index.compare import common_prefix_len, common_suffix_len
from repro.types import empty_triplets, make_triplets, sort_mems, unique_mems


def combine_diagonal(triplets: np.ndarray) -> np.ndarray:
    """Merge overlapping/adjacent triplets on equal diagonals.

    Implements the paper's overlap rule ``0 < (r' - r) = (q' - q) <= λ``
    transitively: after :func:`~repro.types.sort_mems`, connected overlap
    chains collapse to ``(min start, max end)``. Fully vectorized via a
    segmented running maximum of chain ends.
    """
    if triplets.size == 0:
        return empty_triplets()
    t = sort_mems(triplets)
    q = t["q"]
    diag = t["r"] - q
    end = q + t["length"]

    # Segmented cumulative max of `end` within each diagonal group: offset
    # each group by a stride larger than any end value so the global
    # accumulate cannot leak across groups.
    group = np.cumsum(np.concatenate(([0], (np.diff(diag) != 0).astype(np.int64))))
    stride = int(end.max()) - int(q.min()) + 1
    # `group * stride` is an int64 product; with many diagonal groups and
    # far-apart query offsets it can exceed 2^63 - 1, where NumPy wraps
    # silently and the accumulate leaks across groups. Check the largest
    # key with exact Python ints and fall back to per-group accumulates.
    max_key = int(group[-1]) * stride + int(end.max())
    if max_key <= np.iinfo(np.int64).max:
        keyed = end + group * stride
        seg_cummax = np.maximum.accumulate(keyed) - group * stride
    else:
        starts = np.nonzero(np.concatenate(([True], np.diff(diag) != 0)))[0]
        bounds = np.append(starts, end.size)
        seg_cummax = np.empty_like(end)
        for a, b in zip(bounds[:-1], bounds[1:], strict=True):
            seg_cummax[a:b] = np.maximum.accumulate(end[a:b])

    new_chain = np.ones(t.size, dtype=bool)
    if t.size > 1:
        # A triplet starts a new chain if it is on a new diagonal or starts
        # strictly past everything reachable so far on its diagonal.
        same_diag = diag[1:] == diag[:-1]
        overlaps = q[1:] <= seg_cummax[:-1]
        new_chain[1:] = ~(same_diag & overlaps)
    chain_id = np.cumsum(new_chain) - 1
    starts_idx = np.nonzero(new_chain)[0]
    chain_q = q[starts_idx]
    chain_r = t["r"][starts_idx]
    chain_end = np.maximum.reduceat(end, starts_idx)
    return make_triplets(chain_r, chain_q, chain_end - chain_q)


def finalize_mems(
    reference: np.ndarray,
    query: np.ndarray,
    combined: np.ndarray,
    min_length: int,
) -> np.ndarray:
    """Re-extend combined triplets to global maximality, dedup, filter."""
    if combined.size == 0:
        return empty_triplets()
    r = combined["r"]
    q = combined["q"]
    length = combined["length"]
    le = common_suffix_len(reference, query, r, q)
    re = common_prefix_len(reference, query, r + length, q + length)
    full = make_triplets(r - le, q - le, length + le + re)
    full = full[full["length"] >= min_length]
    return unique_mems(full)


def host_merge(
    reference: np.ndarray,
    query: np.ndarray,
    out_tile_triplets: np.ndarray,
    min_length: int,
) -> np.ndarray:
    """The complete host stage: diagonal combine → re-extend → dedup/filter."""
    combined = combine_diagonal(out_tile_triplets)
    return finalize_mems(reference, query, combined, min_length)
