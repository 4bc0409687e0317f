"""Tests for the BSP machine parameters."""

import pytest

from repro.machine.params import MachineParams


class TestMachineParams:
    def test_defaults_are_consistent(self):
        params = MachineParams()
        assert params.alpha >= params.beta >= params.gamma
        assert params.nu >= 0

    @pytest.mark.parametrize("preset", ["knl_like", "container_like",
                                        "compute_only", "communication_only"])
    def test_presets_construct(self, preset):
        params = getattr(MachineParams, preset)()
        assert isinstance(params, MachineParams)
        assert params.cache_words > 0

    def test_negative_parameter_raises(self):
        with pytest.raises(ValueError):
            MachineParams(alpha=-1.0)

    def test_alpha_below_beta_raises(self):
        with pytest.raises(ValueError):
            MachineParams(alpha=1e-10, beta=1e-8, gamma=1e-12)

    def test_beta_below_gamma_raises(self):
        with pytest.raises(ValueError):
            MachineParams(alpha=1e-6, beta=1e-12, gamma=1e-10)

    def test_zero_cache_raises(self):
        with pytest.raises(ValueError):
            MachineParams(cache_words=0)

    def test_scaled_multiplies_all_rates(self):
        params = MachineParams.knl_like()
        doubled = params.scaled(2.0)
        assert doubled.alpha == 2 * params.alpha
        assert doubled.beta == 2 * params.beta
        assert doubled.gamma == 2 * params.gamma
        assert doubled.nu == 2 * params.nu
        assert doubled.cache_words == params.cache_words

    def test_hop_rates_default_to_zero(self):
        params = MachineParams.container_like()
        assert params.alpha_hop == 0.0
        assert params.beta_hop == 0.0

    def test_negative_hop_rate_raises(self):
        with pytest.raises(ValueError):
            MachineParams(alpha_hop=-1e-6)
        with pytest.raises(ValueError):
            MachineParams(beta_hop=-1e-9)

    def test_scaled_multiplies_hop_rates(self):
        params = MachineParams(alpha_hop=1e-4, beta_hop=1e-7)
        doubled = params.scaled(2.0)
        assert doubled.alpha_hop == 2e-4
        assert doubled.beta_hop == 2e-7

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            MachineParams.knl_like().scaled(0.0)

    def test_frozen(self):
        params = MachineParams.knl_like()
        with pytest.raises(Exception):
            params.gamma = 1.0  # type: ignore[misc]

    def test_compute_only_isolates_flops(self):
        params = MachineParams.compute_only()
        assert params.alpha == 0 and params.beta == 0 and params.nu == 0
        assert params.gamma == 1.0
