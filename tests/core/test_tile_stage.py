"""Tests for repro.core.tile_stage."""

import numpy as np

from repro.core.tile_stage import expand_triplets_in_box, tile_combine
from repro.core.tiling import Tile
from repro.gpu.device import TEST_DEVICE
from repro.gpu.kernel import Device
from repro.types import triplets_from_tuples


def box(r0, r1, q0, q1):
    return Tile(row=0, col=0, r_start=r0, r_end=r1, q_start=q0, q_end=q1)


class TestExpandTripletsInBox:
    def test_interior_expansion(self):
        R = np.array([3, 0, 1, 2, 3], dtype=np.uint8)
        Q = np.array([2, 0, 1, 2, 0], dtype=np.uint8)
        inside, touching, ops = expand_triplets_in_box(
            R, Q, triplets_from_tuples([(2, 2, 1)]), box(0, 5, 0, 5)
        )
        assert [tuple(map(int, m)) for m in inside] == [(1, 1, 3)]
        assert touching.size == 0
        assert ops > 0

    def test_crossing_is_touching(self):
        R = np.arange(8, dtype=np.uint8) % 4
        Q = R.copy()
        inside, touching, _ = expand_triplets_in_box(
            R, Q, triplets_from_tuples([(2, 2, 2)]), box(0, 4, 0, 4)
        )
        assert inside.size == 0
        assert [tuple(map(int, m)) for m in touching] == [(0, 0, 4)]  # clipped

    def test_mismatch_exactly_on_boundary_is_final(self):
        # DESIGN.md §5: precise touching — a true mismatch on the box edge
        # still yields an in-tile MEM
        R = np.array([0, 1, 3], dtype=np.uint8)
        Q = np.array([0, 1, 2], dtype=np.uint8)
        inside, touching, _ = expand_triplets_in_box(
            R, Q, triplets_from_tuples([(0, 0, 2)]), box(0, 2, 0, 2)
        )
        assert [tuple(map(int, m)) for m in inside] == [(0, 0, 2)]
        assert touching.size == 0

    def test_empty(self):
        R = np.zeros(4, dtype=np.uint8)
        inside, touching, ops = expand_triplets_in_box(
            R, R, triplets_from_tuples([]), box(0, 4, 0, 4)
        )
        assert inside.size == 0 and touching.size == 0 and ops == 0


class TestTileCombine:
    def test_block_fragments_fuse_to_in_tile(self):
        """A MEM spanning two block strips whose fragments meet at the strip
        boundary must come out as one in-tile MEM."""
        R = np.array([3, 0, 1, 2, 0, 1, 2, 3], dtype=np.uint8)
        Q = np.array([2, 0, 1, 2, 0, 1, 2, 0], dtype=np.uint8)
        # true MEM: (1,1,6). Fragments clipped at block boundary q=4:
        frags = triplets_from_tuples([(1, 1, 3), (4, 4, 3)])
        in_tile, out_tile = tile_combine(R, Q, box(0, 8, 0, 8), frags, 4)
        assert [tuple(map(int, m)) for m in in_tile] == [(1, 1, 6)]
        assert out_tile.size == 0

    def test_missing_middle_fragment_recovered(self):
        """DESIGN.md §5 note 2 at tile level: re-expansion bridges a strip
        with no sampled hit."""
        R = np.array([3] + list(range(9)) + [3], dtype=np.uint8) % 4
        R = R.astype(np.uint8)
        Q = R.copy()
        Q[0] = (Q[0] + 1) % 4
        Q[-1] = (Q[-1] + 1) % 4
        # MEM is (1,1,9); only the first strip's fragment exists
        frags = triplets_from_tuples([(1, 1, 3)])
        in_tile, out_tile = tile_combine(R, Q, box(0, 11, 0, 11), frags, 5)
        assert [tuple(map(int, m)) for m in in_tile] == [(1, 1, 9)]

    def test_touching_tile_box_goes_out(self):
        R = np.arange(8, dtype=np.uint8) % 4
        Q = R.copy()
        frags = triplets_from_tuples([(0, 0, 4)])
        in_tile, out_tile = tile_combine(R, Q, box(0, 4, 0, 4), frags, 2)
        assert in_tile.size == 0
        assert out_tile.size == 1

    def test_short_touching_fragment_kept(self):
        # DESIGN.md §5 note 1: boundary fragments are never length-filtered
        R = np.zeros(4, dtype=np.uint8)
        frags = triplets_from_tuples([(0, 0, 2)])
        in_tile, out_tile = tile_combine(R, R, box(0, 2, 0, 2), frags, 100)
        assert in_tile.size == 0
        assert out_tile.size == 1  # kept although λ << min_length

    def test_min_length_filter_only_for_in_tile(self):
        R = np.array([3, 0, 1, 3], dtype=np.uint8)
        Q = np.array([2, 0, 1, 2], dtype=np.uint8)
        frags = triplets_from_tuples([(1, 1, 2)])
        in_tile, out_tile = tile_combine(R, Q, box(0, 4, 0, 4), frags, 100)
        assert in_tile.size == 0 and out_tile.size == 0

    def test_device_cost_charged(self):
        dev = Device(TEST_DEVICE)
        R = np.zeros(6, dtype=np.uint8)
        frags = triplets_from_tuples([(0, 0, 3)])
        tile_combine(R, R, box(0, 6, 0, 6), frags, 2, device=dev)
        assert dev.reports[-1].name == "tile:combine"

    def test_empty_input(self):
        R = np.zeros(4, dtype=np.uint8)
        in_tile, out_tile = tile_combine(
            R, R, box(0, 4, 0, 4), triplets_from_tuples([]), 2
        )
        assert in_tile.size == 0 and out_tile.size == 0
