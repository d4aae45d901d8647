"""Output checks, run outside the timed region.

``mem_problems`` checks every returned triplet on its own, in O(output):
an exact match of length >= L that is left- and right-maximal, reported
once. ``baseline_digest`` computes the full MEM set with an independent
suffix-array finder from ``repro.baselines`` and caches its digest per
input, so a seed repeated in one checkout pays for the finder once. The
finder's index is cached too: a workload's reference does not change with
the seed.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import numpy as np

#: Bases compared per batch of the exact-match check (bounds its scratch).
_BATCH_BASES = 1 << 23


def mem_problems(
    reference: np.ndarray, query: np.ndarray, mems: np.ndarray, min_length: int
) -> list[str]:
    """What is wrong with ``mems`` as a MEM set of the pair; empty when valid."""
    if mems.size == 0:
        return []
    r = mems["r"].astype(np.int64)
    q = mems["q"].astype(np.int64)
    n = mems["length"].astype(np.int64)
    problems = []
    if (n < min_length).any():
        problems.append(f"{int((n < min_length).sum())} MEMs shorter than L={min_length}")
    if (r < 0).any() or (q < 0).any() or (r + n > reference.size).any() or (
        q + n > query.size
    ).any():
        problems.append("MEMs outside the sequences")
        return problems
    keys = _sorted_keys(mems)
    if (keys[1:] == keys[:-1]).all(axis=1).any():
        problems.append("duplicate MEMs")
    if not _exact(reference, query, r, q, n):
        problems.append("a MEM is not an exact match")
    left_open = (r > 0) & (q > 0)
    left_open[left_open] = (
        reference[r[left_open] - 1] == query[q[left_open] - 1]
    )
    if left_open.any():
        problems.append(f"{int(left_open.sum())} MEMs not left-maximal")
    re, qe = r + n, q + n
    right_open = (re < reference.size) & (qe < query.size)
    right_open[right_open] = (
        reference[re[right_open]] == query[qe[right_open]]
    )
    if right_open.any():
        problems.append(f"{int(right_open.sum())} MEMs not right-maximal")
    return problems


def _exact(reference, query, r, q, n) -> bool:
    """Whether ``reference[r:r+n] == query[q:q+n]`` for every triplet."""
    ends = np.cumsum(n)
    lo = 0
    while lo < n.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - n[lo] + _BATCH_BASES)))
        counts = n[lo:hi]
        owner = np.repeat(np.arange(counts.size), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        offsets = np.arange(int(counts.sum())) - starts[owner]
        if not np.array_equal(
            reference[r[lo:hi][owner] + offsets], query[q[lo:hi][owner] + offsets]
        ):
            return False
        lo = hi
    return True


def _sorted_keys(mems: np.ndarray) -> np.ndarray:
    """``(r, q, length)`` rows in lexicographic order."""
    keys = np.stack([mems["r"], mems["q"], mems["length"]], axis=1).astype(np.int64)
    return keys[np.lexsort(keys.T[::-1])]


def digest(mems: np.ndarray) -> str:
    """Order-insensitive digest of a duplicate-free triplet set."""
    return hashlib.sha256(_sorted_keys(mems).tobytes()).hexdigest()


def _sha(*arrays) -> str:
    key = hashlib.sha256()
    for seq in arrays:
        key.update(np.ascontiguousarray(seq, dtype=np.uint8).tobytes())
        key.update(b"|")
    return key.hexdigest()[:32]


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def _finder(name: str, reference: np.ndarray, cache_dir: Path):
    """The named ``repro.baselines`` finder, indexed on ``reference``."""
    from repro.baselines import ALL_FINDERS

    path = cache_dir / f"index-{name}-{_sha(reference)}.pkl"
    if path.exists():
        # Only this module writes these files.
        return pickle.loads(path.read_bytes())
    tool = ALL_FINDERS[name]()
    tool.build_index(reference)
    _write(path, pickle.dumps(tool, protocol=pickle.HIGHEST_PROTOCOL))
    return tool


def baseline_digest(
    finder: str,
    reference: np.ndarray,
    queries: list[np.ndarray],
    min_length: int,
    cache_dir: Path,
) -> list[str]:
    """Digest of each query's MEM set by the named baseline finder (cached)."""
    path = cache_dir / f"baseline-{finder}-L{min_length}-{_sha(reference, *queries)}.txt"
    if path.exists():
        return path.read_text().split()
    tool = _finder(finder, reference, cache_dir)
    digests = [
        digest(tool.find_mems(query, min_length).mems.array) for query in queries
    ]
    _write(path, ("\n".join(digests) + "\n").encode())
    return digests
