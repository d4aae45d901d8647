"""Workload presets and seeded input generation (never timed).

Genomes come from the dataset registry's fixed seeds, cut to the preset
length; everything sampled from them comes from the run's ``--seed``: the
query's point substitutions for the pair workloads, the read positions and
read errors for read-serve. Fixing the genome pair keeps the work of a
run the same across seeds (the paper, too, measures one genome pair):
with every generator seeded by ``--seed``, pair-repeat ranged from 513 k
to 1.29 M MEMs and from 3.6 s to 9.6 s per call over seeds 1-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.datasets import DATASETS, PAIR_RECIPES
from repro.sequence.synthetic import SyntheticGenomeSpec, mutate, plant_homology


@dataclass(frozen=True)
class PairPreset:
    """A closed loop of whole-query ``find_mems`` calls on one genome pair."""

    name: str
    ref_dataset: str
    query_dataset: str
    ref_length: int
    query_length: int
    min_length: int
    #: Per-base substitution rate of the seeded layer on top of the homolog.
    query_substitution_rate: float = 0.002
    #: The ``repro.baselines`` finder the output is checked against.
    baseline: str = "MUMmer"


@dataclass(frozen=True)
class ReadPreset:
    """An open loop of short reads sent to a ``MemServer``."""

    name: str
    ref_dataset: str
    ref_length: int
    min_length: int
    read_length: int = 2000
    read_error_rate: float = 0.01
    #: Distinct reads generated; requests cycle through them.
    n_reads: int = 512
    #: Closed-loop reads timed on the idle warm session (``extract_s``).
    idle_reads: int = 200
    #: Offered rate of the fixed-rate phase and the ladder's step, in req/s.
    fixed_rate: float = 20.0
    ladder_step: float = 10.0
    #: Ceiling of the ladder, so a much faster program still ends in time.
    ladder_max: float = 300.0
    #: Requests per ladder step: 200 leaves 10 samples beyond p95.
    step_requests: int = 200
    #: The limit a rate must meet: p95 latency with nothing shed.
    p95_limit_ms: float = 100.0
    #: Reads whose served MEMs are compared with the independent finder.
    sample_reads: int = 16
    baseline: str = "MUMmer"


# A pair workload is checked against the faster of two suffix-array finders
# on its inputs: MUMmer takes 10 s on pair-repeat (essaMEM 42 s), essaMEM
# 16 s on pair-sparse (MUMmer 28 s).
PRESETS = {
    "pair-repeat": PairPreset(
        "pair-repeat", "chr1m", "chr2h", 400_000, 200_000, min_length=30
    ),
    "pair-sparse": PairPreset(
        "pair-sparse", "chrXII", "chrI", 2_000_000, 1_000_000, min_length=20,
        baseline="essaMEM",
    ),
    "read-serve": ReadPreset(
        "read-serve", "chrXII", 1_000_000, min_length=20
    ),
}


def genome(dataset: str, length: int) -> np.ndarray:
    """The registry dataset's genome recipe and seed, at ``length`` bases."""
    spec = DATASETS[dataset].genome
    return SyntheticGenomeSpec(
        length, spec.seed, spec.markov_kwargs, spec.repeat_kwargs
    ).generate()


def pair_inputs(preset: PairPreset, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(reference, query)``: the registry pair plus seeded substitutions."""
    reference = genome(preset.ref_dataset, preset.ref_length)
    recipe = PAIR_RECIPES[(preset.ref_dataset, preset.query_dataset)]
    homolog = plant_homology(
        reference,
        preset.query_length,
        # The same query seed the registry's own pair loader uses.
        seed=DATASETS[preset.query_dataset].genome.seed * 7 + 13,
        coverage=recipe.coverage,
        divergence=recipe.divergence,
        segment_length=recipe.segment_length,
        indel_rate=recipe.indel_rate,
    )
    query = mutate(homolog, rate=preset.query_substitution_rate, seed=seed)
    return reference, query


def read_inputs(preset: ReadPreset, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(reference, reads)``: reads sampled at seeded positions, with errors."""
    reference = genome(preset.ref_dataset, preset.ref_length)
    rng = np.random.default_rng(seed)
    starts = rng.integers(
        0, reference.size - preset.read_length + 1, size=preset.n_reads
    )
    read_seeds = rng.integers(2**31, size=preset.n_reads)
    reads = [
        mutate(
            reference[s : s + preset.read_length],
            rate=preset.read_error_rate,
            seed=int(rs),
        )
        for s, rs in zip(starts, read_seeds, strict=True)
    ]
    return reference, reads
