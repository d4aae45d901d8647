"""Batched sequence-comparison kernels on 2-bit packed words.

Every matcher in the library reduces to one primitive: *given many position
pairs, how far do the two sequences agree?* This module provides that
primitive fully vectorized:

- :func:`common_prefix_len` — forward agreement run length for a batch of
  position pairs (used for right extension, LCP arrays, match verification).
- :func:`common_suffix_len` — backward agreement run length (left
  extension / left-maximality).
- :func:`compare_positions` — three-way suffix comparison (used by the
  batched binary searches of the suffix-array baselines).

Sequences are compared the way GPUMEM compares them on the device (§III):
2-bit packed, 32 bases per ``uint64`` word. The 32-base window at any
position is two word gathers and a shift; XOR-ing the two windows leaves the
first mismatch in the lowest set bit. A run ends at the first mismatch, at
the end of either sequence (the run is clipped to the bases both have left,
so no sentinel bases are needed) or at ``limit``. Total work is
``O(sum of agreement lengths / 32 + n_pairs)`` word operations; batches are
split so scratch memory stays bounded.

Each sequence operand is either a base-code array (values 0..3; other
values are rejected, they do not fit a 2-bit slot), packed on the call, or a :class:`PackedCodes` made once by :func:`pack_codes` and
reused by every call — the pipeline packs the reference once per session
and the query once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidSequenceError
from repro.sequence.packed import pack_bits

#: Bases per packed word.
WORD_BASES = 32

#: Maximum pairs compared at once (bounds scratch memory to ~20 MB).
BATCH = 1 << 18

_ONE = np.uint64(1)
_NO_MISMATCH = 2.0**64  # lowest-set-bit stand-in for a zero XOR: 32 bases


@dataclass(frozen=True, eq=False)
class PackedCodes:
    """One sequence as little-endian 2-bit ``uint64`` words, both directions.

    ``fwd`` holds bases ``32*i .. 32*i+31`` in word ``i`` (base ``j`` of a
    word in bits ``2j, 2j+1``) followed by one zero guard word; ``rev`` is
    the same for the reversed sequence, so suffix runs use the prefix
    kernel. Immutable: sessions share one across threads without a lock.
    """

    n: int
    fwd: np.ndarray
    rev: np.ndarray

    def __len__(self) -> int:
        return self.n


def _words(codes: np.ndarray) -> np.ndarray:
    """``codes`` packed into ``uint64`` words plus one zero guard word."""
    packed = pack_bits(codes)
    words = np.zeros((packed.size + 7) // 8 + 1, dtype="<u8")
    words.view(np.uint8)[: packed.size] = packed
    words.flags.writeable = False
    return words


def _codes(seq) -> np.ndarray:
    """``seq`` as a contiguous code array; rejects codes a 2-bit slot cannot hold."""
    codes = np.ascontiguousarray(seq, dtype=np.uint8)
    if codes.size and int(codes.max()) > 3:
        raise InvalidSequenceError(
            f"base codes must be 0..3 for 2-bit comparison, got {int(codes.max())}"
        )
    return codes


def pack_codes(codes) -> PackedCodes:
    """Pack a base-code array (values 0..3) for repeated comparison."""
    codes = _codes(codes)
    return PackedCodes(int(codes.size), _words(codes), _words(codes[::-1]))


def _operand(seq, reverse: bool) -> tuple[np.ndarray, int]:
    """``(words, n)`` of one operand in the requested direction."""
    if isinstance(seq, PackedCodes):
        return (seq.rev if reverse else seq.fwd), seq.n
    codes = _codes(seq)
    return _words(codes[::-1] if reverse else codes), int(codes.size)


def _operands(a, b, reverse: bool) -> tuple[np.ndarray, int, np.ndarray, int]:
    """Both operands; one sequence compared with itself is packed once."""
    wa, na = _operand(a, reverse)
    wb, nb = (wa, na) if b is a else _operand(b, reverse)
    return wa, na, wb, nb


def _window(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 32 bases starting at each position, one ``uint64`` per position."""
    w = pos >> 5
    shift = ((pos & 31) << 1).astype(np.uint64)
    # Split the left shift so it never reaches 64 bits when ``shift`` is 0.
    return (words[w] >> shift) | ((words[w + 1] << _ONE) << (np.uint64(63) - shift))


def _agreement(
    wa: np.ndarray,
    na: int,
    wb: np.ndarray,
    nb: int,
    pa: np.ndarray,
    pb: np.ndarray,
    limit: int | None,
) -> np.ndarray:
    """The packed-word kernel: forward run length per ``(pa, pb)`` pair."""
    pa = np.asarray(pa, dtype=np.int64)
    pb = np.asarray(pb, dtype=np.int64)
    if pa.shape != pb.shape:
        raise ValueError(f"position shape mismatch: {pa.shape} vs {pb.shape}")
    out = np.zeros(pa.size, dtype=np.int64)
    for lo in range(0, pa.size, BATCH):
        cur_a = pa[lo : lo + BATCH]
        cur_b = pb[lo : lo + BATCH]
        # Bases both sequences have left; out-of-range starts get none.
        clip = np.minimum(na - cur_a, nb - cur_b)
        clip[(cur_a < 0) | (cur_b < 0) | (clip < 0)] = 0
        if limit is not None:
            np.minimum(clip, limit, out=clip)
        run = np.zeros(clip.size, dtype=np.int64)
        active = np.flatnonzero(clip > 0)
        cur_a = cur_a[active]
        cur_b = cur_b[active]
        while active.size:
            x = _window(wa, cur_a) ^ _window(wb, cur_b)
            low = (x & (~x + _ONE)).astype(np.float64)
            low[x == 0] = _NO_MISMATCH
            # ``low`` is an exact power of two: its exponent is the bit index.
            agreed = (np.frexp(low)[1] - 1) >> 1
            left = clip[active] - run[active]
            run[active] += np.minimum(agreed, left)
            more = (agreed == WORD_BASES) & (left > WORD_BASES)
            active = active[more]
            cur_a = cur_a[more] + WORD_BASES
            cur_b = cur_b[more] + WORD_BASES
        out[lo : lo + BATCH] = run
    return out


def common_prefix_len(a, b, pa, pb, *, limit: int | None = None) -> np.ndarray:
    """Length of the longest common prefix of ``a[pa:]`` and ``b[pb:]``.

    Vectorized over equal-length position vectors ``pa``/``pb``; ``a`` and
    ``b`` are code arrays or :class:`PackedCodes`. Positions at or past the
    end of their sequence yield 0. With ``limit`` the result is capped (and
    the scan stops early, so capping is also an optimization).
    """
    wa, na, wb, nb = _operands(a, b, reverse=False)
    return _agreement(wa, na, wb, nb, pa, pb, limit)


def common_suffix_len(a, b, pa, pb, *, limit: int | None = None) -> np.ndarray:
    """Length of the longest common suffix of ``a[:pa]`` and ``b[:pb]``.

    This is the left-extension primitive: for a match whose starts are
    ``(r, q)``, ``common_suffix_len(R, Q, r, q)`` says how far the match can
    grow to the left. It runs the prefix kernel on the reversed words at
    mirrored positions.
    """
    wa, na, wb, nb = _operands(a, b, reverse=True)
    pa = np.asarray(pa, dtype=np.int64)
    pb = np.asarray(pb, dtype=np.int64)
    return _agreement(wa, na, wb, nb, na - pa, nb - pb, limit)


def _bases_at(words: np.ndarray, n: int, pos: np.ndarray) -> np.ndarray:
    """Base code at each position as int64, or -1 past the end."""
    safe = np.clip(pos, 0, max(n - 1, 0))
    shift = ((safe & 31) << 1).astype(np.uint64)
    codes = ((words[safe >> 5] >> shift) & np.uint64(3)).astype(np.int64)
    return np.where(pos < n, codes, -1)


def compare_positions(a, b, pa, pb) -> np.ndarray:
    """Three-way comparison of suffixes ``a[pa:]`` vs ``b[pb:]``.

    Returns -1 / 0 / +1 per pair under true suffix order: compare bases until
    the first difference; if one suffix is a proper prefix of the other, the
    shorter one is smaller (matching the suffix-array convention with a
    virtual end-of-string sentinel smaller than every base).
    """
    wa, na, wb, nb = _operands(a, b, reverse=False)
    pa = np.asarray(pa, dtype=np.int64)
    pb = np.asarray(pb, dtype=np.int64)
    lcp = _agreement(wa, na, wb, nb, pa, pb, None)
    # The base (or -1 end marker) that decided each comparison.
    ca = _bases_at(wa, na, pa + lcp)
    cb = _bases_at(wb, nb, pb + lcp)
    # int8 is deliberate: the result is a -1/0/+1 sign, not an index/offset.
    return np.sign(ca - cb).astype(np.int8)  # simt: ignore[KL202]
