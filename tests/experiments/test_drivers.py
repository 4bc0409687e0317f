"""Tests for the experiment drivers (Tables I-IV, Figures 3-5) at container scale."""

import pytest

from repro.data.collinearity import collinearity_tensor
from repro.data.lowrank import random_low_rank_tensor
from repro.experiments.collinearity_speedup import (
    PAPER_COLLINEARITY_BINS,
    collinearity_speedup_study,
)
from repro.experiments.fitness_curves import fitness_curve_comparison
from repro.experiments.pp_vs_ref import PAPER_TABLE2_CONFIGS, pp_vs_reference_table
from repro.experiments.reporting import format_table
from repro.experiments.table1 import table1_rows
from repro.experiments.weak_scaling import (
    PAPER_GRIDS_ORDER3,
    PAPER_GRIDS_ORDER4,
    executed_weak_scaling,
    modeled_weak_scaling,
)


class TestTable1Driver:
    def test_all_methods_present(self):
        rows = table1_rows(100, 3, 20, 16)
        assert [r["method"] for r in rows] == list(
            ("dt", "msdt", "pp-init", "pp-init-ref", "pp-approx", "pp-approx-ref")
        )
        assert all(r["modeled_seconds"] > 0 for r in rows)

    def test_subset_of_methods(self):
        rows = table1_rows(100, 3, 20, 16, methods=("dt", "msdt"))
        assert len(rows) == 2


class TestWeakScalingDriver:
    def test_modeled_default_grid_lists(self):
        points3 = modeled_weak_scaling(3, 400, 400)
        assert len(points3) == len(PAPER_GRIDS_ORDER3) * 5
        points4 = modeled_weak_scaling(4, 75, 200)
        assert len(points4) == len(PAPER_GRIDS_ORDER4) * 5

    def test_modeled_points_have_positive_times(self):
        points = modeled_weak_scaling(3, 100, 50, grids=[(1, 1, 1), (2, 2, 2)])
        assert all(p.per_sweep_seconds > 0 for p in points)
        assert all(p.source == "model" for p in points)

    def test_modeled_msdt_beats_dt_everywhere(self):
        points = modeled_weak_scaling(3, 400, 400)
        by_key = {(p.grid, p.method): p.per_sweep_seconds for p in points}
        for grid in PAPER_GRIDS_ORDER3:
            assert by_key[(grid, "msdt")] < by_key[(grid, "dt")]
            assert by_key[(grid, "pp-approx")] < by_key[(grid, "dt")]

    def test_modeled_wrong_order_grid_raises(self):
        with pytest.raises(ValueError):
            modeled_weak_scaling(3, 100, 50, grids=[(2, 2)])

    def test_default_grids_require_known_order(self):
        with pytest.raises(ValueError):
            modeled_weak_scaling(5, 10, 4)

    def test_executed_small_scale(self):
        points = executed_weak_scaling(3, 5, 4, grids=[(1, 1, 1), (2, 1, 1)],
                                       n_sweeps=2, seed=0)
        assert len(points) == 2 * 5
        assert all(p.source == "executed" for p in points)
        assert all(p.per_sweep_seconds >= 0 for p in points)
        assert all(p.n_procs in (1, 2) for p in points)

    def test_executed_wrong_grid_order_raises(self):
        with pytest.raises(ValueError):
            executed_weak_scaling(3, 5, 4, grids=[(2, 2)], n_sweeps=1)

    def test_point_asdict(self):
        points = modeled_weak_scaling(3, 50, 10, grids=[(2, 2, 2)], methods=("dt",))
        data = points[0].asdict()
        assert data["grid"] == "2x2x2"
        assert data["method"] == "dt"


class TestBreakdown:
    """Fig. 3c-f: the ``breakdown`` of the modeled and executed points."""

    @staticmethod
    def _modeled(grid):
        return {p.method: p.breakdown for p in modeled_weak_scaling(3, 400, 400, grids=[grid])}

    def test_modeled_breakdown_categories(self):
        out = self._modeled((2, 4, 4))
        assert set(out) == {"planc", "dt", "msdt", "pp-init", "pp-approx"}
        for per_cat in out.values():
            assert set(per_cat) == {"ttm", "mttv", "hadamard", "solve", "others", "comm"}

    def test_modeled_ttm_dominates_dt(self):
        dt = self._modeled((8, 8, 8))["dt"]
        assert dt["ttm"] == max(dt.values())

    def test_modeled_pp_approx_has_no_ttm(self):
        assert self._modeled((2, 4, 4))["pp-approx"]["ttm"] == 0.0

    @pytest.fixture(scope="class")
    def executed(self):
        points = executed_weak_scaling(3, 12, 12, grids=[(2, 2, 1)], n_sweeps=2, seed=0)
        return {p.method: p.breakdown for p in points}

    def test_executed_breakdown_counts_the_headline(self, executed):
        # the paper's headline on counted flops: TTM dominates a DT sweep,
        # and the PP approximated sweep runs no TTM at all
        out = executed
        assert set(out) == {"planc", "dt", "msdt", "pp-init", "pp-approx"}
        assert out["dt"]["ttm"] == 82944
        assert out["dt"]["mttv"] == 10368
        assert "ttm" not in out["pp-approx"]
        assert out["pp-approx"]["mttv"] > 0

    def test_executed_msdt_saves_ttm_flops(self, executed):
        # Table I: the multi-sweep tree amortizes first-level TTMs across sweeps
        assert executed["msdt"]["ttm"] < executed["dt"]["ttm"]
        assert sum(executed["msdt"].values()) < sum(executed["dt"].values())


class TestPPvsRefDriver:
    def test_full_paper_configuration_list(self):
        rows = pp_vs_reference_table()
        assert len(rows) == len(PAPER_TABLE2_CONFIGS)

    def test_our_kernels_beat_reference_on_every_configuration(self):
        for row in pp_vs_reference_table():
            assert row["pp_init"] < row["pp_init_ref"], row["grid"]
            assert row["pp_approx"] < row["pp_approx_ref"], row["grid"]
            assert row["init_speedup"] > 1.0
            assert row["approx_speedup"] > 1.0


class TestCollinearityDriver:
    def test_small_study_structure(self):
        results = collinearity_speedup_study(
            mode_size=16, rank=4, bins=[(0.4, 0.6)], n_seeds=1, n_sweeps=25,
            tol=1e-5, pp_tol=0.3,
        )
        assert len(results) == 1
        result = results[0]
        assert len(result.flop_speedups) == 1
        assert result.flop_speedups[0] > 0
        row = result.table3_row()
        assert set(row) == {"collinearity", "num_als", "num_pp_init",
                            "num_pp_approx", "flop_speedup"}
        assert row["flop_speedup"] == result.flop_speedups[0]

    def test_pp_saves_flops_on_collinear_factors(self):
        results = collinearity_speedup_study(
            mode_size=16, rank=4, bins=[(0.6, 0.8)], n_seeds=2, n_sweeps=60, pp_tol=0.2,
        )
        assert min(results[0].flop_speedups) > 1.5

    def test_paper_bins_constant(self):
        assert len(PAPER_COLLINEARITY_BINS) == 5
        assert PAPER_COLLINEARITY_BINS[0] == (0.0, 0.2)


class TestFitnessCurvesDriver:
    def test_comparison_on_small_tensor(self):
        tensor = random_low_rank_tensor((12, 12, 12), rank=4, noise=0.01, seed=0)
        curves = fitness_curve_comparison(tensor, rank=4, label="toy", n_sweeps=25,
                                          tol=1e-7, pp_tol=0.3, seed=1)
        series = curves.curves()
        assert set(series) == {"dt", "msdt", "pp"}
        for name, points in series.items():
            assert len(points) >= 1
            work = [flops for flops, _ in points]
            assert all(b > a for a, b in zip(work, work[1:])), name
        row = curves.table4_row()
        assert row["tensor"] == "toy"
        assert row["n_pp_approx"] >= 0
        assert row["flops_als"] > 0
        # the three methods start from the same initialization, so their final
        # fitness values must be close
        assert abs(curves.dt.fitness - curves.msdt.fitness) < 1e-6


    def test_table4_counts_flops_of_the_pp_run(self):
        tensor = collinearity_tensor((14, 14, 14), 4, (0.6, 0.8), seed=5).tensor
        curves = fitness_curve_comparison(tensor, rank=4, label="toy", n_sweeps=40,
                                          tol=1e-6, pp_tol=0.2, seed=1)
        row = curves.table4_row()
        assert row["n_pp_approx"] > 0
        assert row["flops_pp_approx"] < row["flops_als"]
        total = sum(sum(s.flops.values()) for s in curves.pp.sweeps)
        assert curves.curves()["pp"][-1] == (total, curves.pp.sweeps[-1].fitness)


class TestRepeatability:
    """Two identical calls report identical numbers: nothing is timed."""

    def test_executed_weak_scaling(self):
        def run():
            points = executed_weak_scaling(3, 5, 4, grids=[(2, 1, 1)], n_sweeps=2, seed=0)
            return [(p.method, p.per_sweep_seconds, p.breakdown) for p in points]

        assert run() == run()

    def test_collinearity_study(self):
        def run():
            results = collinearity_speedup_study(
                mode_size=12, rank=3, bins=[(0.4, 0.6)], n_seeds=2, n_sweeps=20, pp_tol=0.3,
            )
            return [r.table3_row() for r in results]

        assert run() == run()

    def test_fitness_curve_comparison(self):
        tensor = random_low_rank_tensor((10, 10, 10), rank=3, noise=0.01, seed=2)

        def run():
            curves = fitness_curve_comparison(tensor, rank=3, label="toy", n_sweeps=15,
                                              tol=0.0, pp_tol=0.3, seed=3)
            return curves.curves(), curves.table4_row()

        assert run() == run()


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 5

    def test_format_table_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
