"""GPUMEM's sampled seed index as one sorted-key table.

The index holds the seeds sampled on the global ``Δs`` grid of a reference
region as two equal-length arrays:

- ``keys``: the ℓs-mer code of each sampled seed, sorted;
- ``locs``: the reference position of each seed, increasing within a run
  of equal keys.

The locations of seed ``s`` are ``locs[lo:hi]`` with ``lo, hi`` the
``searchsorted`` bounds of ``s`` in ``keys``. Memory is ``O(|R| / Δs)``
whatever ℓs is, so seeds can be as long as one ``int64`` code holds
(31 bases, the :func:`~repro.sequence.packed.kmer_codes` limit). The
paper's dense ``ptrs[4^ℓs + 1]`` table (§III-A, Figure 1) is the same
information indexed by seed value; it lives on only in the simulated GPU
backend (:mod:`repro.core.seed_index`), where it models the K20c layout.

Seeds are taken every ``step`` (Δs) positions, with
``step <= min_length - seed_length + 1`` (Eq. 1) guaranteeing every MEM of
length ≥ ``min_length`` contains an indexed, query-aligned seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IndexIntegrityError, InvalidParameterError
from repro.sequence.packed import kmer_codes

#: Longest seed a sorted-key index can hold: one ``int64`` k-mer code.
MAX_KEY_SEED_LENGTH = 31


@dataclass(frozen=True)
class KmerSeedIndex:
    """Sorted seed codes (``keys``) beside their reference positions (``locs``).

    ``locs`` holds *absolute* reference positions (the paper stores
    tile-relative offsets to shave bits; the size accounting reports the
    packed equivalent via :attr:`nbits_per_loc`).
    """

    seed_length: int
    step: int
    region_start: int
    region_end: int
    keys: np.ndarray  # int64[n_locs], non-decreasing
    locs: np.ndarray  # int64[n_locs]

    @property
    def n_locs(self) -> int:
        return int(self.locs.size)

    @property
    def nbits_per_loc(self) -> int:
        """Bits per stored location at the paper's packing (⌈log2 region⌉)."""
        span = max(2, self.region_end - self.region_start)
        return int(np.ceil(np.log2(span)))

    @property
    def nbytes_packed(self) -> int:
        """Footprint with locations and 2-bit seed codes bit-packed."""
        bits = self.n_locs * (self.nbits_per_loc + 2 * self.seed_length)
        return (bits + 7) // 8

    def lookup(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: for each seed value, its ``(start, count)`` slice
        of ``locs``.

        Values that are not indexed (including negative ones, which callers
        use to mark windows that fall off the sequence) get count 0. Sorted
        ``seeds`` make the binary searches walk ``keys`` in order.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        starts = np.searchsorted(self.keys, seeds, side="left")
        counts = np.zeros(seeds.size, dtype=np.int64)
        if self.keys.size:
            last = np.minimum(starts, self.keys.size - 1)
            found = np.flatnonzero(self.keys[last] == seeds)
            ends = np.searchsorted(self.keys, seeds[found], side="right")
            counts[found] = ends - starts[found]
        return starts, counts

    def locations_of(self, seed_value: int) -> np.ndarray:
        """All reference positions of one seed value (sorted)."""
        starts, counts = self.lookup(np.array([seed_value]))
        return self.locs[int(starts[0]) : int(starts[0] + counts[0])]

    def check(self) -> None:
        """Structural checks (tests, ``--selfcheck`` and ``.npz`` loads).

        ``keys`` non-decreasing, every location inside the region and on
        the ``step`` grid, and locations increasing within equal keys.
        Raises :class:`repro.errors.IndexIntegrityError` (never a bare
        ``AssertionError``, which ``python -O`` would strip).
        """
        if self.keys.shape != self.locs.shape:
            raise IndexIntegrityError(
                f"keys {self.keys.shape} and locs {self.locs.shape} differ "
                "in shape", field="keys",
            )
        step_down = np.diff(self.keys) < 0
        if np.any(step_down):
            raise IndexIntegrityError(
                f"keys must be non-decreasing (slot {int(np.argmax(step_down)) + 1})",
                field="keys",
            )
        outside = (self.locs < self.region_start) | (self.locs >= self.region_end)
        if np.any(outside):
            raise IndexIntegrityError(
                f"location {int(self.locs[np.argmax(outside)])} outside the "
                f"region [{self.region_start}, {self.region_end})",
                field="locs",
            )
        off_grid = self.locs % self.step != 0
        if np.any(off_grid):
            raise IndexIntegrityError(
                f"location {int(self.locs[np.argmax(off_grid)])} is off the "
                f"Δs = {self.step} grid",
                field="locs",
            )
        unsorted = (np.diff(self.keys) == 0) & (np.diff(self.locs) <= 0)
        if np.any(unsorted):
            seed = int(self.keys[np.argmax(unsorted)])
            raise IndexIntegrityError(
                f"seed {seed} locations not sorted", field="locs"
            )


def validate_sparsity(seed_length: int, step: int, min_length: int) -> None:
    """Enforce Eq. (1): ``Δs <= L - ℓs + 1``; violating it loses MEMs."""
    if seed_length < 1:
        raise InvalidParameterError(f"seed_length must be >= 1, got {seed_length}")
    if step < 1:
        raise InvalidParameterError(f"step must be >= 1, got {step}")
    if min_length < seed_length:
        raise InvalidParameterError(
            f"min_length ({min_length}) must be >= seed_length ({seed_length})"
        )
    if step > min_length - seed_length + 1:
        raise InvalidParameterError(
            f"Eq. (1) violated: step {step} > min_length - seed_length + 1 = "
            f"{min_length - seed_length + 1}; MEMs could be missed"
        )


def max_step(seed_length: int, min_length: int) -> int:
    """The paper's choice: the largest Eq. (1)-legal step, ``L - ℓs + 1``."""
    if min_length < seed_length:
        raise InvalidParameterError(
            f"min_length ({min_length}) must be >= seed_length ({seed_length})"
        )
    return min_length - seed_length + 1


def grid_positions(
    n: int, seed_length: int, step: int, region_start: int, region_end: int
) -> np.ndarray:
    """Positions ``p ≡ 0 (mod step)`` in ``[region_start, region_end)`` whose
    seed window fits in a sequence of ``n`` bases.

    The grid is global, so indexing a region never shifts the sample phase.
    Windows may read past ``region_end`` (DESIGN.md §5 note 3) but never
    past the end of the sequence.
    """
    first = ((region_start + step - 1) // step) * step
    last = min(region_end, n - seed_length + 1)
    if first >= last:
        return np.empty(0, dtype=np.int64)
    return np.arange(first, last, step, dtype=np.int64)


def build_kmer_index(
    codes: np.ndarray,
    *,
    seed_length: int,
    step: int,
    region_start: int = 0,
    region_end: int | None = None,
) -> KmerSeedIndex:
    """Build the sorted-key index of reference region ``[start, end)``
    (default: the whole sequence)."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n = codes.size
    region_end = n if region_end is None else min(int(region_end), n)
    region_start = max(0, int(region_start))
    if not 1 <= seed_length <= MAX_KEY_SEED_LENGTH:
        raise InvalidParameterError(f"seed_length out of range: {seed_length}")
    if step < 1:
        raise InvalidParameterError(f"step must be >= 1, got {step}")

    positions = grid_positions(n, seed_length, step, region_start, region_end)
    if positions.size == 0:
        keys = positions.copy()
    else:
        # Encode only the region's window: the last seed ends at
        # ``positions[-1] + seed_length`` (at most the sequence end).
        first = int(positions[0])
        window = codes[first : int(positions[-1]) + seed_length]
        keys = kmer_codes(window, seed_length)[positions - first]
        order = np.argsort(keys, kind="stable")  # stable → locs sorted per key
        keys, positions = keys[order], positions[order]
    return KmerSeedIndex(
        seed_length=seed_length,
        step=step,
        region_start=region_start,
        region_end=region_end,
        keys=keys,
        locs=positions,
    )
