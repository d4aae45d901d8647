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
