"""slaMEM baseline (Fernandes & Freitas 2013).

slaMEM retrieves MEMs with the FM-index backward-search method, using a
(sampled) LCP array to shorten the current match from the right when a
backward extension fails. Our implementation:

- **matching statistics**: the query is processed right to left keeping the
  SA interval of the longest reference match starting at each position;
  a failed backward extension climbs to *parent LCP intervals* (via
  :class:`~repro.index.esa.LCPIntervals` over the FM suffix array — the
  full-LCP stand-in for slaMEM's sampled LCP array, documented in
  DESIGN.md) until the extension succeeds.
- **enumeration**: at each query position the parent-interval chain is
  walked downward in depth; every ring ``parent \\ child`` at depth ≥ L
  contributes candidates whose agreement equals exactly that depth.
  Reference positions come from the sampled-SA ``locate``; left-maximality
  is checked on the text.

This is the only baseline whose per-position state is a sequential
recurrence (the others batch whole position vectors), which is also why its
extraction throughput trails the suffix-array tools here — consistent with
slaMEM's positioning as the memory-frugal option rather than the fastest.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MEMFinder
from repro.index.esa import LCPIntervals
from repro.index.fm_index import FMIndex
from repro.index.lcp import lcp_array
from repro.types import empty_triplets, make_triplets, unique_mems


class SlaMemFinder(MEMFinder):
    """FM-index backward-search MEM finder."""

    name = "slaMEM"

    def __init__(self, occ_rate: int = 64, sa_rate: int = 8):
        super().__init__()
        self.occ_rate = int(occ_rate)
        self.sa_rate = int(sa_rate)
        self._fm: FMIndex | None = None
        self._intervals: LCPIntervals | None = None
        self._sa_cache: np.ndarray | None = None

    def _build(self, reference: np.ndarray) -> None:
        self._fm = FMIndex(reference, occ_rate=self.occ_rate, sa_rate=self.sa_rate)
        # LCP over the FM suffix array of the sentinel-terminated text. The
        # comparison clips runs at the end of the reference, which is what
        # the unique sentinel does, and the sentinel suffix (position n)
        # contributes LCP 0 everywhere, exactly right for parent-interval
        # navigation.
        sa = self._fm.full_suffix_array()
        # full_suffix_array is only materialized to build the LCP intervals
        # (slaMEM builds its sampled LCP at construction time, same phase).
        self._intervals = LCPIntervals(lcp_array(reference, sa))
        self._sa_cache = sa

    def index_bytes(self) -> int:
        if self._fm is None:
            return 0
        # BWT + occ checkpoints + SA samples + the (sampled-in-spirit) LCP.
        return int(self._fm.nbytes + self._intervals.lcp.nbytes)

    # -- matching statistics ----------------------------------------------------
    def _shorten_to_extendable(self, lo: int, hi: int, depth: int, sym: int):
        """Climb parent intervals until prepending ``sym`` succeeds (or root)."""
        fm = self._fm
        iv = self._intervals
        while True:
            nlo, nhi = fm.backward_extend_scalar(lo, hi, sym)
            if nhi > nlo:
                return nlo, nhi, depth + 1
            if depth == 0:
                return 0, fm.n, 0  # even the single symbol is absent
            plo, phi, pdepth = iv.parent_scalar(lo, hi)
            if phi - plo == hi - lo:  # already at root-size interval
                lo, hi, depth = 0, fm.n, 0
            else:
                lo, hi = plo, phi
                depth = min(depth, pdepth)

    def _find(self, query: np.ndarray, min_length: int) -> np.ndarray:
        fm = self._fm
        iv = self._intervals
        reference = self._reference
        nq = query.size
        out_r: list[np.ndarray] = []
        out_q: list[int] = []
        out_l: list[np.ndarray] = []

        lo, hi, depth = 0, fm.n, 0
        for q in range(nq - 1, -1, -1):
            lo, hi, depth = self._shorten_to_extendable(lo, hi, depth, int(query[q]))
            if depth == 0:
                continue
            # Enumerate candidate rings: deepest interval at exact agreement
            # ``depth``, then parents while their depth stays >= L.
            clo, chi, cdepth = lo, hi, depth
            ring_prev = None
            while cdepth >= min_length:
                rows = (
                    np.arange(clo, chi, dtype=np.int64)
                    if ring_prev is None
                    else np.concatenate(
                        [
                            np.arange(clo, ring_prev[0], dtype=np.int64),
                            np.arange(ring_prev[1], chi, dtype=np.int64),
                        ]
                    )
                )
                if rows.size:
                    r = self._locate_rows(rows)
                    valid = r < reference.size  # drop the sentinel suffix
                    r = r[valid]
                    if r.size:
                        out_r.append(r)
                        out_q.append(q)
                        out_l.append(np.full(r.size, cdepth, dtype=np.int64))
                ring_prev = (clo, chi)
                plo, phi, pdepth = iv.parent_scalar(clo, chi)
                if (plo, phi) == (clo, chi):
                    break
                clo, chi, cdepth = plo, phi, min(cdepth, pdepth)

            # The state interval/depth carries to the next (left) position.
        if not out_r:
            return empty_triplets()
        r_all = np.concatenate(out_r)
        q_all = np.concatenate(
            [np.full(rs.size, qq, dtype=np.int64) for rs, qq in zip(out_r, out_q, strict=True)]
        )
        l_all = np.concatenate(out_l)
        # Left-maximality on the text.
        at_edge = (r_all == 0) | (q_all == 0)
        keep = at_edge | (
            reference[np.maximum(r_all - 1, 0)] != query[np.maximum(q_all - 1, 0)]
        )
        return unique_mems(make_triplets(r_all[keep], q_all[keep], l_all[keep]))

    def matching_statistics(self, query: np.ndarray) -> np.ndarray:
        """Per-position longest-match lengths via the FM recurrence.

        Exposed because matching statistics are useful beyond MEM output
        (read classification, compressed matching); also cross-validated in
        the tests against the suffix-array computation.
        """
        query = np.ascontiguousarray(query, dtype=np.uint8)
        fm = self._fm
        out = np.zeros(query.size, dtype=np.int64)
        lo, hi, depth = 0, fm.n, 0
        for q in range(query.size - 1, -1, -1):
            lo, hi, depth = self._shorten_to_extendable(lo, hi, depth, int(query[q]))
            out[q] = depth
        return out

    def _locate_rows(self, rows: np.ndarray) -> np.ndarray:
        if self._sa_cache is not None:
            return self._sa_cache[rows]
        out = np.empty(rows.size, dtype=np.int64)
        for i, row in enumerate(rows):  # pragma: no cover - cache always built
            out[i] = self._fm.locate(int(row), int(row) + 1)[0]
        return out
