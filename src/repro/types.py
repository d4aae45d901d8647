"""Shared result types: match triplets and MEM sets.

A maximal exact match (MEM) is reported exactly as in the paper, Table I: a
triplet ``(r, q, length)`` meaning
``R[r : r + length] == Q[q : q + length]`` with mismatches (or sequence
boundaries) immediately to the left and right.

Triplets are stored in NumPy structured arrays so that the whole pipeline —
generation, combining, sorting by diagonal — stays vectorized. Every triplet
sort orders by ``(r − q, q, length)`` — diagonal first, as in the paper's
§III-C — through one scalar ``int64`` key built from the array's own value
ranges (:func:`diagonal_key`), so sorting and deduplication are a plain
integer sort instead of a per-field record compare.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

#: Structured dtype of a match triplet: reference start, query start, length.
TRIPLET_DTYPE = np.dtype([("r", np.int64), ("q", np.int64), ("length", np.int64)])

#: Alias — final MEMs use the same layout as intermediate triplets.
MEM_DTYPE = TRIPLET_DTYPE


def make_triplets(r, q, length) -> np.ndarray:
    """Build a structured triplet array from three equal-length vectors."""
    r = np.asarray(r, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    length = np.asarray(length, dtype=np.int64)
    if not (r.shape == q.shape == length.shape):
        raise ValueError(
            f"mismatched triplet component shapes: {r.shape}, {q.shape}, {length.shape}"
        )
    out = np.empty(r.shape, dtype=TRIPLET_DTYPE)
    out["r"] = r
    out["q"] = q
    out["length"] = length
    return out


def empty_triplets() -> np.ndarray:
    """An empty triplet array (the identity for :func:`concat_triplets`)."""
    return np.empty(0, dtype=TRIPLET_DTYPE)


def concat_triplets(parts: Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate triplet arrays, tolerating an empty iterable."""
    parts = [p for p in parts if p.size]
    if not parts:
        return empty_triplets()
    return np.concatenate(parts)


def diagonal_key(mems: np.ndarray) -> np.ndarray | None:
    """One ``int64`` per triplet that orders like ``(r − q, q, length)``.

    ``((r − q − d0)·nq + (q − q0))·nl + (length − l0)``, with offsets and
    widths from the array's minima and maxima, so equal keys mean equal
    triplets. ``None`` when the key could pass 2⁶³ − 1 (checked with exact
    ints). ``mems`` must be non-empty.
    """
    diag = mems["r"] - mems["q"]
    q = mems["q"]
    length = mems["length"]
    d0, q0, l0 = int(diag.min()), int(q.min()), int(length.min())
    nd = int(diag.max()) - d0 + 1
    nq = int(q.max()) - q0 + 1
    nl = int(length.max()) - l0 + 1
    if nd * nq * nl > 2**63:  # the largest key, nd·nq·nl − 1, must fit
        return None
    key = diag
    key -= d0
    key *= nq
    key += q - q0
    key *= nl
    key += length - l0
    return key


def _diagonal_order(mems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation into key order, plus values in that order that are
    equal between neighbours exactly when their triplets are (the sorted
    key, or the rows themselves in the ``np.lexsort`` overflow fallback)."""
    key = diagonal_key(mems)
    if key is None:
        order = np.lexsort((mems["length"], mems["q"], mems["r"] - mems["q"]))
        return order, mems[order]
    order = np.argsort(key)  # ties are identical rows: stability is moot
    return order, key[order]


def sort_mems(mems: np.ndarray) -> np.ndarray:
    """Sort triplets by ``(r − q, q, length)`` — the paper's §III-C1 order.

    Overlapping triplets on the same diagonal become adjacent, which is what
    makes the scan-combine at tile and host level correct.
    """
    if mems.size < 2:
        return mems.copy()
    return mems[_diagonal_order(mems)[0]]


def unique_mems(mems: np.ndarray) -> np.ndarray:
    """Drop exact duplicate triplets; returns diagonal-sorted output."""
    if mems.size < 2:
        return mems.copy()
    order, values = _diagonal_order(mems)
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return mems[order[keep]]


def mems_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Set equality of two MEM collections (order/duplicate insensitive)."""
    return np.array_equal(unique_mems(a), unique_mems(b))


class MatchSet:
    """A queryable collection of MEM triplets with bookkeeping statistics.

    This is the object returned by the public matchers. It behaves like a
    sequence of ``(r, q, length)`` tuples and exposes the underlying
    structured array as :attr:`array` for vectorized consumers.
    """

    def __init__(self, triplets: np.ndarray, *, stats=None):
        if triplets.dtype != TRIPLET_DTYPE:
            raise TypeError(f"expected TRIPLET_DTYPE array, got {triplets.dtype}")
        self._array = unique_mems(triplets)
        #: Pipeline statistics: a typed
        #: :class:`repro.core.pipeline.PipelineStats` (kept by reference, so
        #: the producing matcher and the result expose the same object) or a
        #: plain dict (copied) for ad-hoc annotations. Both support the
        #: mapping protocol.
        if stats is None:
            self.stats = {}
        elif isinstance(stats, dict):
            self.stats = dict(stats)
        else:
            self.stats = stats

    @property
    def array(self) -> np.ndarray:
        """The deduplicated, diagonal-sorted structured triplet array."""
        return self._array

    def __len__(self) -> int:
        return int(self._array.size)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for row in self._array:
            yield (int(row["r"]), int(row["q"]), int(row["length"]))

    def __getitem__(self, item):
        rows = self._array[item]
        if np.isscalar(item) or isinstance(item, (int, np.integer)):
            return (int(rows["r"]), int(rows["q"]), int(rows["length"]))
        return rows

    def __eq__(self, other) -> bool:
        if isinstance(other, MatchSet):
            return mems_equal(self._array, other._array)
        return NotImplemented

    def __hash__(self):  # pragma: no cover - MatchSets are not hashable
        raise TypeError("MatchSet is unhashable")

    def __repr__(self) -> str:
        return f"MatchSet(n={len(self)})"

    def lengths(self) -> np.ndarray:
        """Vector of MEM lengths."""
        return self._array["length"].copy()

    def total_matched_bases(self) -> int:
        """Sum of MEM lengths (a coarse similarity signal)."""
        return int(self._array["length"].sum())

    def filter_min_length(self, min_length: int) -> "MatchSet":
        """A new :class:`MatchSet` keeping MEMs of at least ``min_length``."""
        keep = self._array["length"] >= int(min_length)
        return MatchSet(self._array[keep], stats=self.stats)

    def as_tuples(self) -> list[tuple[int, int, int]]:
        """Materialize as a plain list of python-int tuples (test helper)."""
        return list(self)


def triplets_from_tuples(tuples: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Inverse of :meth:`MatchSet.as_tuples`."""
    if not tuples:
        return empty_triplets()
    arr = np.array(tuples, dtype=np.int64).reshape(-1, 3)
    return make_triplets(arr[:, 0], arr[:, 1], arr[:, 2])
