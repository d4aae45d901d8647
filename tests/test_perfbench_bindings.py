"""The traced benchmark run (``perfbench/spans.py``) patches functions in
``src/`` at the bindings their callers look up, by ``__dict__``. A rename
there must fail here, not silently skip a span in the traced run."""

import pytest

from perfbench.spans import BOUNDARIES, _resolve


@pytest.mark.parametrize(
    ("owner", "attr"), [(owner, attr) for owner, attr, *_ in BOUNDARIES]
)
def test_boundary_resolves_through_dict(owner, attr):
    assert callable(_resolve(owner).__dict__[attr])


#: Span names of the vectorized-path boundaries: the index build, the seed
#: lookup, the match stage, candidate expansion, extension and the
#: comparison kernels.
VECTORIZED_SPANS = (
    "kmer_index.build",
    "kmer_index.lookup",
    "vectorized.stage_tile",
    "vectorized.candidates",
    "vectorized.extend",
    "compare",
)


def test_vectorized_boundaries_fire(monkeypatch):
    """A binding that resolves but is no longer called would leave its
    traced per-layer metrics at zero; one run must open every span."""
    from perfbench.spans import Recorder, traced
    from repro import mutate, random_dna
    from repro.core.session import MemSession
    from repro.index.store import STORE_ENV_VAR

    # a warm store load would skip the build the test wants to see
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)

    reference = random_dna(4000, seed=3)
    query = mutate(reference[500:2500], rate=0.02, seed=4)
    recorder = Recorder()
    with traced(recorder):
        result = MemSession(reference, min_length=20).find_mems(query)
    assert len(result) > 0
    counts = {}
    for span in recorder.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    for name in VECTORIZED_SPANS:
        assert counts.get(name), f"{name} never fired"
    candidates = sum(s.counts.get("candidates", 0) for s in recorder.spans
                     if s.name == "vectorized.candidates")
    assert candidates == result.stats.n_candidates > 0
