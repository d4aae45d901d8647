"""GPUMEM parameter set (the symbols of the paper's Table I).

``GpuMemParams`` gathers and validates every tunable of the pipeline:

===============  ======  =====================================================
field            paper   meaning
===============  ======  =====================================================
min_length       L       minimum reported MEM length
seed_length      ℓs      indexing seed length; default per backend, see
                         :func:`default_seed_length`
step             Δs      indexing step (sparsification); default is the
                         paper's choice, the Eq. (1) maximum ``L - ℓs + 1``
threads_per_block τ      GPU threads per block (power of two — Algorithm 3's
                         combine tree needs ``k = log2 τ``)
work_per_thread  w       query locations per thread; the paper proves
                         ``w = Δs`` extracts every MEM exactly once, and that
                         is the default (and the only safe choice, enforced)
blocks_per_tile  n_block  blocks per tile (tile is split into vertical
                         ``ℓtile × ℓblock`` strips)
===============  ======  =====================================================

Derived: ``block_width ℓblock = τ · w`` and ``tile_size ℓtile = n_block · ℓblock``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.errors import InvalidParameterError
from repro.index.kmer_index import MAX_KEY_SEED_LENGTH, max_step, validate_sparsity

#: Supported backends of :class:`repro.core.matcher.GpuMem`.
BACKENDS = ("vectorized", "simulated")

#: Cap on ℓs per backend. The vectorized sorted-key index stores one
#: ``int64`` code per seed (31 bases); the simulated GPU's dense ``ptrs``
#: table has 4^ℓs entries per tile row, 8·4^13 = 537 MB at the cap.
MAX_SEED_LENGTH = {"vectorized": MAX_KEY_SEED_LENGTH, "simulated": 13}

#: The simulated backend's default ℓs (the paper's K20c setting, DESIGN.md
#: §5 note 4), lowered to L when L is shorter.
SIMULATED_SEED_LENGTH = 10


def default_seed_length(min_length: int, backend: str = "vectorized") -> int:
    """The default ℓs for ``min_length`` on ``backend``.

    Vectorized: ``ℓs = min(31, L + 1 - ⌈L/3⌉)``, so the Eq. (1) step is
    ``Δs = ⌈L/3⌉`` below the cap. The index then holds ~3|R|/L seeds while a
    seed is long enough (ℓs = 14 at L = 20) that chance hits stay rare on
    genomes of ~10^8 bases (docs/tuning.md has the measured table).
    Simulated: ``min(10, L)``.
    """
    if backend == "simulated":
        return min(SIMULATED_SEED_LENGTH, min_length)
    return min(MAX_KEY_SEED_LENGTH, min_length + 1 - -(-min_length // 3))

#: How the pipeline runs its tile rows: in-process, one after another, or
#: as contiguous bands on the worker processes of :mod:`repro.core.procpool`.
EXECUTOR_NAMES = ("serial", "process")


@dataclass(frozen=True)
class GpuMemParams:
    """Validated GPUMEM parameter set. Instances are immutable."""

    min_length: int
    #: ``None`` resolves to :func:`default_seed_length` for the backend.
    seed_length: int | None = None
    step: int | None = None
    threads_per_block: int = 128
    blocks_per_tile: int = 64
    work_per_thread: int | None = None
    load_balancing: bool = True
    backend: str = "vectorized"
    #: Row executor of the staged pipeline: "serial" or "process".
    #: ``None`` resolves to the ``REPRO_EXECUTOR`` environment variable
    #: (default "serial") — the knob CI's process-tier leg uses to run the
    #: whole core suite under ``executor=process``.
    executor: str | None = None
    #: Process count of the "process" executor; ``None`` resolves to
    #: ``REPRO_WORKERS`` if set (process executor only), else the CPU count
    #: capped at 8.
    workers: int | None = None

    def __post_init__(self):
        if self.min_length < 1:
            raise InvalidParameterError(
                f"min_length must be >= 1, got {self.min_length}"
            )
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.seed_length is None:
            object.__setattr__(
                self, "seed_length",
                default_seed_length(self.min_length, self.backend),
            )
        cap = MAX_SEED_LENGTH[self.backend]
        if not 1 <= self.seed_length <= cap:
            raise InvalidParameterError(
                f"seed_length must be in [1, {cap}] on the {self.backend} "
                f"backend, got {self.seed_length}"
            )
        if self.seed_length > self.min_length:
            raise InvalidParameterError(
                f"seed_length ({self.seed_length}) must not exceed min_length "
                f"({self.min_length}); the paper drops ℓs to match small L"
            )
        if self.step is None:
            object.__setattr__(
                self, "step", max_step(self.seed_length, self.min_length)
            )
        validate_sparsity(self.seed_length, self.step, self.min_length)
        tau = self.threads_per_block
        if tau < 2 or (tau & (tau - 1)) != 0:
            raise InvalidParameterError(
                f"threads_per_block must be a power of two >= 2, got {tau}"
            )
        if self.blocks_per_tile < 1:
            raise InvalidParameterError(
                f"blocks_per_tile must be >= 1, got {self.blocks_per_tile}"
            )
        if self.work_per_thread is None:
            object.__setattr__(self, "work_per_thread", self.step)
        if self.work_per_thread != self.step:
            # §III-B2: "To extract all the valid MEMs and not to extract a MEM
            # more than once, GPUMEM uses w = Δs."
            raise InvalidParameterError(
                f"work_per_thread (w={self.work_per_thread}) must equal step "
                f"(Δs={self.step}); any other value loses or duplicates MEMs"
            )
        if self.executor is None:
            object.__setattr__(
                self, "executor", os.environ.get("REPRO_EXECUTOR", "serial")
            )
        # Only the process executor has workers; resolving the variable for
        # serial params would make them differ from a worker's own params.
        if (self.workers is None and self.executor == "process"
                and os.environ.get("REPRO_WORKERS")):
            object.__setattr__(
                self, "workers", int(os.environ["REPRO_WORKERS"])
            )
        if self.executor not in EXECUTOR_NAMES:
            raise InvalidParameterError(
                f"unknown executor {self.executor!r}; choose from {EXECUTOR_NAMES}"
            )
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1 (or None), got {self.workers}"
            )

    # -- derived sizes (Table I) --------------------------------------------------
    @property
    def block_width(self) -> int:
        """ℓblock = τ · w: query positions covered by one GPU block."""
        return self.threads_per_block * self.work_per_thread

    @property
    def tile_size(self) -> int:
        """ℓtile = n_block · ℓblock: side of a square tile."""
        return self.blocks_per_tile * self.block_width

    @property
    def n_seed_values(self) -> int:
        """Distinct seed values, ``4^ℓs`` (the simulated ``ptrs`` length - 1)."""
        return 4**self.seed_length

    def locs_per_row(self) -> int:
        """Paper §III-A: ``n_locs = ⌈ℓtile / Δs⌉`` locations per tile row
        (simulated backend and performance model)."""
        return -(-self.tile_size // self.step)

    def with_(self, **changes) -> "GpuMemParams":
        """A modified copy (dataclasses.replace with re-validation)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        out = (
            f"L={self.min_length} ℓs={self.seed_length} Δs={self.step} "
            f"τ={self.threads_per_block} w={self.work_per_thread} "
            f"ℓblock={self.block_width} n_block={self.blocks_per_tile} "
            f"ℓtile={self.tile_size} balance={'on' if self.load_balancing else 'off'}"
        )
        if self.executor != "serial":
            out += f" exec={self.executor}"
            if self.workers is not None:
                out += f"×{self.workers}"
        return out
