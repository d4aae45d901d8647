"""Tests of the benchmark itself, on inputs far smaller than its workloads.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.params import GpuMemParams  # noqa: E402
from repro.core.session import MemSession  # noqa: E402
from repro.types import make_triplets  # noqa: E402

from perfbench.check import baseline_digest, digest, mem_problems  # noqa: E402
from perfbench.inputs import PairPreset, ReadPreset, pair_inputs  # noqa: E402
from perfbench.spans import Recorder, Span, self_times, traced  # noqa: E402
from perfbench.workloads import run_pair, run_reads  # noqa: E402

SMALL_PAIR = PairPreset("small-pair", "chrXII", "chrI", 400_000, 200_000, min_length=20)
SMALL_READS = ReadPreset(
    "small-reads", "chrXII", 200_000, min_length=20, n_reads=24, idle_reads=8,
    fixed_rate=40.0, ladder_step=20.0, ladder_max=60.0, step_requests=20,
    sample_reads=4,
)

#: Work counters that depend on the bytes of the inputs. A seed moves the
#: fragment count by about one (it only changes 0.2% of the query's
#: bases), so two seeds can share it; three rarely do.
CONTENT_COUNTERS = ["vectorized.candidates", "compare.pairs", "compare.bases_agreed"]
FRAGMENTS = "host_merge.fragments"
#: Work counters fixed by the input sizes and parameters alone.
SIZE_COUNTERS = ["sequence.kmer_codes_bases", "kmer_index.locs", "pipeline.tiles"]


def _counters(outcome) -> dict:
    names = CONTENT_COUNTERS + [FRAGMENTS] + SIZE_COUNTERS
    return {k: outcome.metrics[k][0] for k in names}


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    return [run_pair(SMALL_PAIR, seed, 0, Recorder(), out) for seed in (1, 1, 2, 3)]


def test_pair_work_counters_repeat_under_one_seed(traced_pairs):
    a, b, c, d = traced_pairs
    assert not any(run.problems for run in traced_pairs)
    assert _counters(a) == _counters(b)
    for name in CONTENT_COUNTERS:
        assert a.metrics[name][0] != c.metrics[name][0], name
    assert len({run.metrics[FRAGMENTS][0] for run in (a, c, d)}) > 1


def test_pair_size_counters_match_the_tile_grid(traced_pairs):
    outcome = traced_pairs[0]
    grid = outcome.record["grid"]
    n_ref = SMALL_PAIR.ref_length
    step = GpuMemParams(min_length=SMALL_PAIR.min_length).step
    assert outcome.metrics["pipeline.tiles"][0] == grid["rows"] * grid["cols"]
    # Each row build encodes the whole reference: the redundancy of warm().
    assert outcome.metrics["sequence.kmer_codes_bases"][0] == grid["rows"] * n_ref
    assert outcome.metrics["kmer_index.locs"][0] == len(range(0, n_ref - 9, step))
    assert outcome.metrics["session.cache_hit_ratio"][0] == 1.0


def test_reads_work_counters_repeat_under_one_seed(tmp_path):
    runs = [run_reads(SMALL_READS, seed, 0, Recorder(), tmp_path) for seed in (3, 3, 4)]
    assert not any(r.problems for r in runs)
    assert _counters(runs[0]) == _counters(runs[1])
    assert runs[0].metrics["vectorized.candidates"] != runs[2].metrics["vectorized.candidates"]
    assert runs[0].metrics["serve.service_ms_p50"][0] > 0
    assert runs[0].record["steps"][0]["offered_rps"] == SMALL_READS.fixed_rate


def test_checks_reject_wrong_outputs(tmp_path):
    reference, query = pair_inputs(SMALL_PAIR, 1)
    L = SMALL_PAIR.min_length
    mems = MemSession(reference, min_length=L).find_mems(query).array
    assert mem_problems(reference, query, mems, L) == []
    [want] = baseline_digest(SMALL_PAIR.baseline, reference, [query], L, tmp_path)
    assert digest(mems) == want
    assert digest(mems[1:]) != want

    def corrupt(field, delta, row=0):
        bad = mems.copy()
        bad[field][row] += delta
        return bad

    assert mem_problems(reference, query, corrupt("length", -1), L)  # not right-maximal
    assert mem_problems(reference, query, corrupt("r", 1), L)  # not an exact match
    assert mem_problems(reference, query, np.concatenate([mems, mems[:1]]), L)
    short = make_triplets([0], [0], [L - 1])
    assert any("shorter" in p for p in mem_problems(reference, query, short, L))


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(1, None, 0, "parent", 0.0, 10.0),
        Span(2, 1, 0, "a", 1.0, 3.0),
        Span(3, 1, 0, "b", 2.0, 4.0),  # overlaps a: [1, 4) is covered once
        Span(4, 1, 0, "c", 6.0, 7.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_traced_restores_every_binding():
    import repro.core.pipeline as pipeline

    before = (MemSession.find_mems, pipeline.stage_tile)
    with traced(Recorder()):
        assert MemSession.find_mems is not before[0]
    assert (MemSession.find_mems, pipeline.stage_tile) == before


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "read-serve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
