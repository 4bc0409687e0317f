"""Tests for the composed per-sweep time model (Figure 3 at paper scale)."""

import pytest

from repro.comm import MACHINES
from repro.costs.sweep_model import (
    MODELED_METHODS,
    SPARSE_MODELED_METHODS,
    sparse_sweep_time_model,
    sweep_time_model,
)
from repro.machine.params import MachineParams


class TestPaperShapes:
    """The modeled per-sweep times must reproduce the paper's qualitative findings."""

    @pytest.fixture(scope="class")
    def params(self):
        return MachineParams.knl_like()

    def test_order3_ranking_at_large_grid(self, params):
        times = {m: sweep_time_model(m, 400, 3, 400, 512, params).total_seconds
                 for m in MODELED_METHODS}
        # PP approximated step fastest, MSDT beats DT, PP-init ~ DT, PLANC ~ DT
        assert times["pp-approx"] < times["msdt"] < times["dt"]
        assert times["pp-init"] == pytest.approx(times["dt"], rel=0.15)
        assert times["planc"] == pytest.approx(times["dt"], rel=0.15)

    def test_order3_msdt_speedup_close_to_paper(self, params):
        dt = sweep_time_model("dt", 400, 3, 400, 512, params).total_seconds
        msdt = sweep_time_model("msdt", 400, 3, 400, 512, params).total_seconds
        speedup = dt / msdt
        # paper: 1.25x measured; flop ratio alone would be 1.5x
        assert 1.1 < speedup < 1.6

    def test_order3_pp_approx_speedup_close_to_paper(self, params):
        dt = sweep_time_model("dt", 400, 3, 400, 512, params).total_seconds
        approx = sweep_time_model("pp-approx", 400, 3, 400, 512, params).total_seconds
        speedup = dt / approx
        # paper: 1.94x measured
        assert 1.5 < speedup < 3.5

    def test_order4_pp_init_slower_than_dt(self, params):
        """Fig. 3b: PP-init pays for tensor transposes at order 4."""
        dt = sweep_time_model("dt", 75, 4, 200, 256, params).total_seconds
        init = sweep_time_model("pp-init", 75, 4, 200, 256, params).total_seconds
        assert init > dt

    def test_order3_pp_init_not_slower_than_dt(self, params):
        dt = sweep_time_model("dt", 400, 3, 400, 64, params).total_seconds
        init = sweep_time_model("pp-init", 400, 3, 400, 64, params).total_seconds
        assert init <= dt * 1.05

    def test_order4_msdt_still_wins(self, params):
        dt = sweep_time_model("dt", 75, 4, 200, 256, params).total_seconds
        msdt = sweep_time_model("msdt", 75, 4, 200, 256, params).total_seconds
        assert msdt < dt

    def test_weak_scaling_is_roughly_flat_for_dt(self, params):
        """With fixed local size the per-sweep compute is constant; only the
        communication terms grow (slowly), as in Fig. 3a."""
        small = sweep_time_model("dt", 400, 3, 400, 8, params).total_seconds
        large = sweep_time_model("dt", 400, 3, 400, 512, params).total_seconds
        assert large < 2.0 * small

    def test_planc_solve_heavier_than_distributed(self, params):
        planc = sweep_time_model("planc", 75, 4, 200, 256, params)
        ours = sweep_time_model("dt", 75, 4, 200, 256, params)
        assert planc.solve_seconds >= ours.solve_seconds


class TestInterface:
    def test_breakdown_categories_sum_to_total(self):
        breakdown = sweep_time_model("dt", 50, 3, 20, 8)
        assert breakdown.total_seconds == pytest.approx(sum(breakdown.category_seconds().values()))

    def test_category_keys(self):
        breakdown = sweep_time_model("msdt", 50, 3, 20, 8)
        assert set(breakdown.category_seconds()) == {"ttm", "mttv", "hadamard",
                                                     "solve", "others", "comm"}

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            sweep_time_model("warp", 50, 3, 20, 8)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            sweep_time_model("dt", -1, 3, 20, 8)
        with pytest.raises(ValueError):
            sweep_time_model("dt", 50, 1, 20, 8)

    def test_default_params_used_when_omitted(self):
        assert sweep_time_model("dt", 50, 3, 20, 8).total_seconds > 0


class TestSparseSweepModel:
    SHAPE = (400, 400, 400)
    GRID = (4, 4, 4)

    def test_trees_amortize_recompute(self):
        times = {
            m: sparse_sweep_time_model(m, 1e6, self.SHAPE, 64, self.GRID).total_seconds
            for m in SPARSE_MODELED_METHODS
        }
        assert times["dt"] < times["naive"]
        assert times["msdt"] < times["naive"]

    def test_compute_scales_with_nnz_not_volume(self):
        small = sparse_sweep_time_model("dt", 1e5, self.SHAPE, 64, self.GRID)
        bigger_volume = sparse_sweep_time_model(
            "dt", 1e5, (4000, 4000, 4000), 64, self.GRID
        )
        # same nnz, 1000x the dense volume: kernel terms unchanged
        assert bigger_volume.ttm_seconds == small.ttm_seconds
        assert bigger_volume.mttv_seconds == small.mttv_seconds
        more_nnz = sparse_sweep_time_model("dt", 1e6, self.SHAPE, 64, self.GRID)
        assert more_nnz.ttm_seconds > small.ttm_seconds

    def test_imbalance_slows_the_critical_path(self):
        balanced = sparse_sweep_time_model("msdt", 1e6, self.SHAPE, 64, self.GRID)
        skewed = sparse_sweep_time_model("msdt", 1e6, self.SHAPE, 64, self.GRID,
                                         imbalance=3.0)
        assert skewed.ttm_seconds > balanced.ttm_seconds
        # factor-sized terms (solves, collectives) are unaffected
        assert skewed.solve_seconds == balanced.solve_seconds
        assert skewed.communication_seconds == balanced.communication_seconds

    def test_padded_block_rows_cost_communication(self):
        base = sparse_sweep_time_model("dt", 1e6, self.SHAPE, 64, self.GRID)
        padded = sparse_sweep_time_model("dt", 1e6, self.SHAPE, 64, self.GRID,
                                         block_rows=(300, 300, 300))
        assert padded.communication_seconds > base.communication_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            sparse_sweep_time_model("planc", 1e6, self.SHAPE, 64, self.GRID)
        with pytest.raises(ValueError):
            sparse_sweep_time_model("dt", 1e6, self.SHAPE, 64, self.GRID, imbalance=0.5)
        with pytest.raises(ValueError):
            sparse_sweep_time_model("dt", 1e6, (8,), 64, (2,))
        with pytest.raises(ValueError):
            sparse_sweep_time_model("dt", 1e6, self.SHAPE, 64, self.GRID,
                                    fiber_ratio=2.0)

    def test_breakdown_sums(self):
        breakdown = sparse_sweep_time_model("msdt", 1e5, self.SHAPE, 32, self.GRID)
        assert breakdown.method == "msdt"
        assert breakdown.total_seconds == pytest.approx(
            sum(breakdown.category_seconds().values())
        )


class TestProcessHopModel:
    SHAPE = (48, 48, 48)
    GRID = (1, 2, 2)
    HOP_PARAMS = MachineParams(alpha_hop=1e-4, beta_hop=1e-7)

    def test_simulated_execution_has_no_hop_seconds(self):
        breakdown = sparse_sweep_time_model(
            "dt", 1e4, self.SHAPE, 8, self.GRID, params=self.HOP_PARAMS
        )
        assert breakdown.hop_seconds == 0.0
        assert "hop" not in breakdown.category_seconds()

    def test_process_execution_adds_hop_seconds(self):
        base = sparse_sweep_time_model(
            "dt", 1e4, self.SHAPE, 8, self.GRID, params=self.HOP_PARAMS
        )
        proc = sparse_sweep_time_model(
            "dt", 1e4, self.SHAPE, 8, self.GRID, params=self.HOP_PARAMS,
            execution="process",
        )
        assert proc.hop_seconds > 0.0
        assert proc.total_seconds == pytest.approx(
            base.total_seconds + proc.hop_seconds
        )
        assert proc.category_seconds()["hop"] == pytest.approx(proc.hop_seconds)

    def test_zero_hop_params_keep_category_keys_stable(self):
        proc = sparse_sweep_time_model(
            "dt", 1e4, self.SHAPE, 8, self.GRID, execution="process"
        )
        # container_like defaults: alpha_hop == beta_hop == 0 -> no "hop" key
        assert proc.hop_seconds == 0.0
        assert set(proc.category_seconds()) == {"ttm", "mttv", "hadamard",
                                                "solve", "others", "comm"}

    def test_process_hop_cost_prices_the_master_path(self):
        """Per mode: 3P queue messages and (d + P) * b * R copied words."""
        from repro.machine.collective_costs import process_hop_cost

        messages, words = process_hop_cost((40, 60, 80), (1, 2, 2), 8)
        n_procs, block_rows = 4, (40, 30, 40)
        assert messages == 3 * n_procs * 3
        assert words == sum((d + n_procs) * b * 8
                            for d, b in zip((1, 2, 2), block_rows))

    @pytest.mark.parametrize("execution", sorted(MACHINES))
    def test_every_machine_substrate_is_priced(self, execution):
        breakdown = sparse_sweep_time_model("dt", 1e4, self.SHAPE, 8, self.GRID,
                                            execution=execution)
        assert breakdown.total_seconds > 0.0

    def test_invalid_execution_raises(self):
        with pytest.raises(ValueError) as info:
            sparse_sweep_time_model("dt", 1e4, self.SHAPE, 8, self.GRID,
                                    execution="quantum")
        assert str(list(MACHINES)) in str(info.value)
