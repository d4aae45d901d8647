"""The GPUMEM driver: end-to-end MEM extraction.

:class:`GpuMem` is the one-shot entry point over the staged pipeline of
:mod:`repro.core.pipeline` (seed index → sorted seed join → leftmost-hit
extension; the simulated backend runs the paper's per-row index, per-tile
kernels and host merge). Each call binds a transient
:class:`repro.core.session.MemSession`; many-query workloads should hold a
session directly so the index is built once and reused.

Two backends:

- ``"vectorized"`` — whole-array NumPy implementation of each stage
  (production path, used by the wall-clock benchmarks);
- ``"simulated"``  — Algorithms 1–3 run as per-thread kernels on the SIMT
  simulator of :mod:`repro.gpu` (used to validate the published pseudocode
  and to drive the load-balancing/divergence experiments, Fig. 7).
"""

from __future__ import annotations

from repro.core.params import GpuMemParams
from repro.core.pipeline import PipelineStats, as_codes
from repro.core.session import MemSession
from repro.obs.tracer import Tracer, get_tracer
from repro.types import MatchSet

#: Backwards-compatible alias — historical internal name, imported widely.
_as_codes = as_codes


class GpuMem:
    """GPUMEM matcher.

    Parameters may be given as a ready :class:`GpuMemParams` or as keyword
    arguments forwarded to it::

        GpuMem(min_length=50)                     # default ℓs for L
        GpuMem(GpuMemParams(min_length=50, seed_length=10))
        GpuMem(min_length=50, backend="simulated", load_balancing=False)
        GpuMem(min_length=50, executor="process", workers=4)
        GpuMem(min_length=50, tracer=Tracer())   # record spans + metrics
    """

    def __init__(self, params: GpuMemParams | None = None, /, *,
                 tracer: Tracer | None = None, **kwargs):
        if params is None:
            params = GpuMemParams(**kwargs)
        elif kwargs:
            params = params.with_(**kwargs)
        self.params = params
        #: Observability sink shared with every session this matcher binds.
        self.tracer = get_tracer(tracer)
        #: Stats of the most recent :meth:`find_mems` call. Always a
        #: well-shaped :class:`PipelineStats` (zeroed before the first call).
        self.stats: PipelineStats = PipelineStats(
            backend=params.backend,
            executor=params.executor,
            params=params.describe(),
        )

    # -- public API -----------------------------------------------------------
    def find_mems(self, reference, query) -> MatchSet:
        """All maximal exact matches of length ≥ ``params.min_length``.

        One-shot convenience: a fresh session is bound per call. For
        repeated queries against one reference, hold a
        :class:`~repro.core.session.MemSession` instead.
        """
        session = MemSession(reference, self.params, tracer=self.tracer)
        result = session.find_mems(query)
        self.stats = session.stats
        return result

    # -- convenience ------------------------------------------------------------
    def index_only(self, reference) -> float:
        """Build the seed index and return the build time in seconds.

        This is the quantity the paper's Table III reports for GPUMEM: index
        construction alone, without matching.
        """
        return MemSession(reference, self.params, tracer=self.tracer).warm()


def find_mems(reference, query, min_length: int, **kwargs) -> MatchSet:
    """One-call convenience wrapper around :class:`GpuMem`."""
    return GpuMem(min_length=min_length, **kwargs).find_mems(reference, query)
