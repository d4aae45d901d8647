"""GPUMEM's lightweight seed index — CPU reference implementation.

The paper's index (§III-A, Figure 1) is two arrays:

- ``locs``: positions of the indexed seeds in the reference, grouped by seed
  value and sorted within each group;
- ``ptrs``: prefix sums of per-seed occurrence counts, so the locations of
  seed ``s`` live at ``locs[ptrs[s] : ptrs[s+1]]``.

Beside them each index keeps ``present``, a 1-bit membership table (bit
``s & 7`` of byte ``s >> 3`` is set iff seed ``s`` occurs in the region).
At ``4^ℓs / 8`` bytes it is 64× smaller than ``ptrs`` and stays in cache,
so the tile stage tests every query seed against it first and reads
``ptrs`` only for the few seeds that occur in the row.

Seeds are taken every ``step`` (Δs) positions, with
``step <= min_length - seed_length + 1`` (Eq. 1) guaranteeing every MEM of
length ≥ ``min_length`` contains an indexed, query-aligned seed.

This module is the *sequential reference*: the GPU-kernel version of the same
construction (Algorithm 1: atomic counting → prefix sum → atomic fill →
per-seed sort) lives in :mod:`repro.core.seed_index` and is tested for
equality against this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IndexIntegrityError, InvalidParameterError
from repro.sequence.packed import kmer_codes


@dataclass(frozen=True)
class KmerSeedIndex:
    """The ``locs``/``ptrs`` pair for one reference region.

    ``locs`` holds *absolute* reference positions (the paper stores
    tile-relative offsets to shave bits; absolute positions keep the host
    bookkeeping simpler and the size accounting is reported equivalently
    via :attr:`nbits_per_loc`).

    ``present`` is the membership bitset; constructors that do not pass it
    get it derived from ``ptrs``.
    """

    seed_length: int
    step: int
    region_start: int
    region_end: int
    ptrs: np.ndarray  # int64[4**seed_length + 1]
    locs: np.ndarray  # int64[n_locs]
    present: np.ndarray | None = None  # uint8[ceil(4**seed_length / 8)]

    def __post_init__(self):
        if self.present is None:
            object.__setattr__(self, "present", present_bits(np.diff(self.ptrs) > 0))

    @property
    def n_locs(self) -> int:
        return int(self.locs.size)

    @property
    def n_seeds(self) -> int:
        return 4 ** self.seed_length

    @property
    def nbits_per_loc(self) -> int:
        """Bits per stored location at the paper's packing (⌈log2 ℓtile⌉)."""
        span = max(2, self.region_end - self.region_start)
        return int(np.ceil(np.log2(span)))

    @property
    def nbytes_packed(self) -> int:
        """Footprint at the paper's bit packing (§III-A sizing formulas)."""
        locs_bits = self.n_locs * self.nbits_per_loc
        ptrs_bits = (self.n_seeds + 1) * max(1, int(np.ceil(np.log2(max(2, self.n_locs + 1)))))
        return (locs_bits + ptrs_bits + 7) // 8

    def lookup(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: for each seed value, its (start, count) slice.

        Out-of-range seed values (negative — used by callers to mark query
        windows that fall off the sequence) return count 0.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        valid = (seeds >= 0) & (seeds < self.n_seeds)
        safe = np.where(valid, seeds, 0)
        starts = self.ptrs[safe]
        counts = np.where(valid, self.ptrs[safe + 1] - starts, 0)
        return starts, counts

    def present_indices(self, seeds: np.ndarray) -> np.ndarray:
        """Indices into ``seeds`` of the values whose ``present`` bit is set.

        Out-of-range values read a clipped byte and may pass; :meth:`lookup`
        still gives them count 0.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        byte = np.take(self.present, seeds >> 3, mode="clip")
        return np.flatnonzero((byte >> (seeds & 7).astype(np.uint8)) & 1)

    def locations_of(self, seed_value: int) -> np.ndarray:
        """All reference positions of one seed value (sorted)."""
        if not 0 <= seed_value < self.n_seeds:
            return np.empty(0, dtype=np.int64)
        return self.locs[self.ptrs[seed_value] : self.ptrs[seed_value + 1]]

    def check(self) -> None:
        """Internal consistency checks (used by tests, --selfcheck, and load).

        Raises :class:`repro.errors.IndexIntegrityError` (never a bare
        ``AssertionError``, which ``python -O`` would strip) so corrupt
        indexes are rejected structurally on every interpreter mode.
        """
        if self.ptrs.size != self.n_seeds + 1:
            raise IndexIntegrityError(
                f"ptrs has {self.ptrs.size} entries, expected "
                f"{self.n_seeds + 1} (4^{self.seed_length} + 1)",
                field="ptrs",
            )
        if self.ptrs[0] != 0 or self.ptrs[-1] != self.n_locs:
            raise IndexIntegrityError(
                f"ptrs endpoints ({int(self.ptrs[0])}, {int(self.ptrs[-1])}) "
                f"do not span [0, n_locs={self.n_locs}]",
                field="ptrs",
            )
        if not np.all(np.diff(self.ptrs) >= 0):
            raise IndexIntegrityError(
                "ptrs must be non-decreasing", field="ptrs"
            )
        occurs = np.diff(self.ptrs) > 0
        # Within a group locations strictly increase; a step that does not
        # is allowed only where a new group starts.
        group_start = np.zeros(self.n_locs, dtype=bool)
        group_start[self.ptrs[:-1][occurs]] = True
        bad = np.flatnonzero(~group_start[1:] & (np.diff(self.locs) <= 0))
        if bad.size:
            s = int(np.searchsorted(self.ptrs, bad[0] + 1, side="right")) - 1
            raise IndexIntegrityError(
                f"seed {s} locations not sorted", field="locs"
            )
        expect = present_bits(occurs)
        if (
            self.present.dtype != np.uint8
            or self.present.shape != expect.shape
            or not np.array_equal(self.present, expect)
        ):
            raise IndexIntegrityError(
                "present bits disagree with the non-empty ptrs groups",
                field="present",
            )


def present_bits(occurs: np.ndarray) -> np.ndarray:
    """Pack one bool per seed value into the ``present`` bitset layout."""
    return np.packbits(occurs, bitorder="little")


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


def build_kmer_index(
    codes: np.ndarray,
    *,
    seed_length: int,
    step: int,
    region_start: int = 0,
    region_end: int | None = None,
) -> KmerSeedIndex:
    """Build the ``locs``/``ptrs`` index for reference region ``[start, end)``.

    Indexed positions are the global grid ``p ≡ 0 (mod step)`` intersected
    with the region (grid-aligned globally so that tiling does not shift the
    sample phase). Seed windows may read past ``region_end`` into the full
    sequence — only the window *start* must lie in the region (DESIGN.md §5
    note 3) — but never past the end of the sequence itself.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n = codes.size
    region_end = n if region_end is None else min(int(region_end), n)
    region_start = max(0, int(region_start))
    if seed_length < 1 or seed_length > 31:
        raise InvalidParameterError(f"seed_length out of range: {seed_length}")
    if step < 1:
        raise InvalidParameterError(f"step must be >= 1, got {step}")

    first = ((region_start + step - 1) // step) * step
    last = min(region_end, n - seed_length + 1)  # window must fit in sequence
    if first >= last:
        positions = np.empty(0, dtype=np.int64)
    else:
        positions = np.arange(first, last, step, dtype=np.int64)

    n_seeds = 4**seed_length
    if positions.size == 0:
        return KmerSeedIndex(
            seed_length=seed_length,
            step=step,
            region_start=region_start,
            region_end=region_end,
            ptrs=np.zeros(n_seeds + 1, dtype=np.int64),
            locs=positions,
        )

    # Encode only this row's window: the last seed ends at
    # ``positions[-1] + seed_length`` (at most the sequence end).
    window = codes[first : int(positions[-1]) + seed_length]
    seeds = kmer_codes(window, seed_length)[positions - first]
    order = np.argsort(seeds, kind="stable")  # stable → per-seed positions sorted
    locs = positions[order]
    counts = np.bincount(seeds, minlength=n_seeds)
    ptrs = np.zeros(n_seeds + 1, dtype=np.int64)
    np.cumsum(counts, out=ptrs[1:])
    # O(n_locs) from the row's own seeds, not O(4^ℓs) from ``counts``.
    present = np.zeros((n_seeds + 7) // 8, dtype=np.uint8)
    np.bitwise_or.at(present, seeds >> 3, np.left_shift(1, seeds & 7).astype(np.uint8))
    return KmerSeedIndex(
        seed_length=seed_length,
        step=step,
        region_start=region_start,
        region_end=region_end,
        ptrs=ptrs,
        locs=locs,
        present=present,
    )
