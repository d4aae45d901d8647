"""Tile-level combining of out-block triplets (paper §III-C1).

The out-block triplets of one tile's blocks are sorted by ``r − q`` (ties on
``q``, then length), combined along diagonals, re-expanded to maximality
within the tile box, and split into *in-tile* MEMs (final — moved to the
host for reporting) and *out-tile* triplets (appended to the global list
merged at the very end, §III-C2).

The sort/combine here is vectorized with an analytic device-cost charge
(the paper assigns a parallel sort plus one thread per block strip; we
charge ``n log n`` sort work and per-triplet combine/expansion work), since
thread-level simulation of a library sort adds nothing to fidelity.

The re-expansion step exists because a block can miss a fragment of a
crossing MEM entirely (no aligned sampled seed inside that strip); see
DESIGN.md §5 note 2 — the same argument as the host stage, one level down.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.host_merge import combine_diagonal
from repro.core.tiling import Tile
from repro.index.compare import common_prefix_len, common_suffix_len
from repro.types import empty_triplets, make_triplets, unique_mems


def expand_triplets_in_box(
    reference: np.ndarray,
    query: np.ndarray,
    triplets: np.ndarray,
    tile: Tile,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximal extension of triplets, precise-touching split at the tile box.

    Returns ``(final_inside, touching, char_ops)`` where ``final_inside``
    are mismatch-delimited strictly inside the box (true MEMs of any
    length — caller filters by L) and ``touching`` are clipped at the box.
    """
    if triplets.size == 0:
        return empty_triplets(), empty_triplets(), 0
    r = triplets["r"]
    q = triplets["q"]
    lam = triplets["length"]

    dl = np.minimum(r - tile.r_start, q - tile.q_start)
    le = common_suffix_len(reference, query, r, q)
    touch_left = le > dl
    le_c = np.minimum(le, dl)

    cap = np.minimum(tile.r_end - r, tile.q_end - q) - lam
    re = common_prefix_len(reference, query, r + lam, q + lam)
    touch_right = re > cap
    re_c = np.minimum(re, np.maximum(cap, 0))

    ops = int(le.sum() + re.sum()) + 2 * r.size
    out = make_triplets(r - le_c, q - le_c, lam + le_c + re_c)
    touching = touch_left | touch_right
    return unique_mems(out[~touching]), unique_mems(out[touching]), ops


def tile_combine(
    reference: np.ndarray,
    query: np.ndarray,
    tile: Tile,
    out_block: np.ndarray,
    min_length: int,
    device=None,
) -> tuple[np.ndarray, np.ndarray]:
    """§III-C1 for one tile: sort+combine, re-expand, split in/out-tile."""
    if out_block.size == 0:
        return empty_triplets(), empty_triplets()
    combined = combine_diagonal(out_block)
    inside, touching, ops = expand_triplets_in_box(reference, query, combined, tile)
    in_tile = inside[inside["length"] >= min_length]
    if device is not None:
        from repro.gpu.primitives import _charge_primitive

        n = int(out_block.size)
        sort_work = n * max(1.0, math.log2(max(n, 2)))
        _charge_primitive(
            device,
            "tile:combine",
            work=sort_work + ops,
            depth=max(1.0, math.log2(max(n, 2))),
        )
    return in_tile, touching
