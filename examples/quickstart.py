"""Quickstart: find maximal exact matches between two sequences.

Run::

    python examples/quickstart.py

Generates a small synthetic reference, derives a mutated query from it, and
extracts all MEMs of length >= 40 with the GPUMEM pipeline — then shows the
same result through two of the CPU baselines the paper compares against.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.baselines import EssaMemFinder, MummerFinder
from repro.sequence.alphabet import decode

MIN_LENGTH = 40


def main() -> None:
    # 1. A 100 kbp random reference and a query that shares diverged
    #    segments with it (2% divergence -> exact matches of ~50 bp).
    reference = repro.random_dna(100_000, seed=1)
    from repro.sequence.synthetic import plant_homology

    query = plant_homology(
        reference, 60_000, seed=2, coverage=0.6, divergence=0.02
    )

    # 2. GPUMEM (vectorized backend): one call.
    mems = repro.find_mems(reference, query, min_length=MIN_LENGTH)
    print(f"GPUMEM found {len(mems)} MEMs of length >= {MIN_LENGTH}")
    print("five longest:")
    top = sorted(mems, key=lambda t: -t[2])[:5]
    for r, q, length in top:
        print(f"  R[{r}:{r + length}] == Q[{q}:{q + length}]  (length {length})")
        fragment = decode(reference[r : r + min(length, 50)])
        print(f"    {fragment}{'...' if length > 50 else ''}")

    # 3. Verify a MEM really is maximal (the definition from §II).
    r, q, length = top[0]
    assert np.array_equal(reference[r : r + length], query[q : q + length])
    assert r == 0 or q == 0 or reference[r - 1] != query[q - 1]
    assert (
        r + length == reference.size
        or q + length == query.size
        or reference[r + length] != query[q + length]
    )
    print("maximality verified for the longest MEM")

    # 4. The CPU baselines produce the identical set.
    for finder in (MummerFinder(), EssaMemFinder(sparseness=4)):
        finder.build_index(reference)
        result = finder.find_mems(query, MIN_LENGTH)
        assert result.mems == mems, finder.name
        print(f"{finder.name}: identical MEM set "
              f"(build {finder.name} index: {result.seconds:.3f}s extraction)")

    # 5. Pipeline statistics from the matcher.
    matcher = repro.GpuMem(min_length=MIN_LENGTH)
    n_mems = len(matcher.find_mems(reference, query))
    stats = matcher.stats
    print(
        f"tiles: {stats['n_tiles']}  candidates: {stats['n_candidates']:,}  "
        f"MEMs: {n_mems}"
    )
    print(f"index {stats['index_time']:.3f}s + match {stats['match_time']:.3f}s")


if __name__ == "__main__":
    main()
