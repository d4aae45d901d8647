"""Tests for repro.core.params (Table I symbols + Eq. 1)."""

import pytest

from repro.core.params import BACKENDS, GpuMemParams, default_seed_length
from repro.errors import InvalidParameterError


class TestDefaults:
    def test_paper_default_step_is_eq1_max(self):
        p = GpuMemParams(min_length=50, seed_length=10)
        assert p.step == 41  # L - ℓs + 1

    def test_w_equals_step(self):
        # §III-B2: w = Δs is required for exactly-once extraction
        p = GpuMemParams(min_length=50, seed_length=10)
        assert p.work_per_thread == p.step

    def test_derived_sizes(self):
        p = GpuMemParams(min_length=50, seed_length=10,
                         threads_per_block=128, blocks_per_tile=64)
        assert p.block_width == 128 * 41
        assert p.tile_size == 64 * 128 * 41

    def test_locs_per_row_formula(self):
        # §III-A: n_locs = ceil(ℓtile / Δs)
        p = GpuMemParams(min_length=50, seed_length=10)
        assert p.locs_per_row() == -(-p.tile_size // p.step)

    def test_n_seed_values(self):
        assert GpuMemParams(min_length=20, seed_length=6).n_seed_values == 4**6


class TestValidation:
    def test_rejects_step_over_eq1(self):
        with pytest.raises(InvalidParameterError, match="Eq"):
            GpuMemParams(min_length=50, seed_length=10, step=42)

    def test_accepts_step_at_eq1(self):
        GpuMemParams(min_length=50, seed_length=10, step=41)

    def test_rejects_w_not_step(self):
        with pytest.raises(InvalidParameterError, match="w="):
            GpuMemParams(min_length=50, seed_length=10, work_per_thread=10)

    def test_rejects_seed_longer_than_L(self):
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=8, seed_length=10)

    def test_rejects_non_power_of_two_tau(self):
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=20, threads_per_block=96)

    def test_rejects_tau_one(self):
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=20, threads_per_block=1)

    def test_rejects_bad_min_length(self):
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=0)

    def test_rejects_huge_seed(self):
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=100, seed_length=32)
        with pytest.raises(InvalidParameterError, match="simulated"):
            GpuMemParams(min_length=100, seed_length=14, backend="simulated")

    def test_rejects_bad_backend(self):
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=20, backend="cuda")

    def test_backends_list(self):
        assert set(BACKENDS) == {"vectorized", "simulated"}

    def test_rejects_zero_blocks(self):
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=20, blocks_per_tile=0)


class TestSeedLengthRule:
    @pytest.mark.parametrize("L, ls", [(1, 1), (10, 7), (20, 14), (30, 21),
                                       (100, 31)])
    def test_vectorized_rule(self, L, ls):
        # ℓs = min(31, L + 1 - ⌈L/3⌉): Δs = ⌈L/3⌉ below the cap
        p = GpuMemParams(min_length=L)
        assert p.seed_length == ls == default_seed_length(L)
        assert p.step == L - ls + 1
        if ls < 31:
            assert p.step == -(-L // 3)

    @pytest.mark.parametrize("L, ls", [(1, 1), (10, 10), (20, 10), (100, 10)])
    def test_simulated_default(self, L, ls):
        p = GpuMemParams(min_length=L, backend="simulated")
        assert p.seed_length == ls == default_seed_length(L, "simulated")

    def test_caps_per_backend(self):
        assert GpuMemParams(min_length=100, seed_length=31).seed_length == 31
        GpuMemParams(min_length=100, seed_length=13, backend="simulated")
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=100, seed_length=14, backend="simulated")
        with pytest.raises(InvalidParameterError):
            GpuMemParams(min_length=100, seed_length=32)


class TestWith:
    def test_with_revalidates(self):
        p = GpuMemParams(min_length=50, seed_length=10)
        with pytest.raises(InvalidParameterError):
            p.with_(min_length=5)

    def test_with_rederives_step(self):
        p = GpuMemParams(min_length=50, seed_length=10)
        # explicit None re-derives the Eq. 1 maximum for the new L
        q = p.with_(min_length=30, step=None, work_per_thread=None)
        assert q.step == 21

    def test_immutable(self):
        p = GpuMemParams(min_length=50)
        with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
            p.min_length = 10

    def test_describe_mentions_symbols(self):
        text = GpuMemParams(min_length=50, seed_length=10).describe()
        for sym in ("L=50", "ℓs=10", "Δs=41", "τ="):
            assert sym in text
