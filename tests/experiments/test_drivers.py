"""Tests for the experiment drivers (Tables I-IV, Figures 3-5) at container scale."""

import numpy as np
import pytest

from repro.data.lowrank import random_low_rank_tensor
from repro.experiments.breakdown import BREAKDOWN_CATEGORIES, executed_breakdown, modeled_breakdown
from repro.experiments.collinearity_speedup import (
    PAPER_COLLINEARITY_BINS,
    collinearity_speedup_study,
)
from repro.experiments.fitness_curves import fitness_curve_comparison
from repro.experiments.pp_vs_ref import PAPER_TABLE2_CONFIGS, pp_vs_reference_table
from repro.experiments.reporting import format_breakdown, format_table
from repro.experiments.table1 import table1_rows
from repro.experiments.weak_scaling import (
    PAPER_GRIDS_ORDER3,
    PAPER_GRIDS_ORDER4,
    executed_sparse_weak_scaling,
    executed_weak_scaling,
    modeled_sparse_weak_scaling,
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


class TestSparseWeakScalingDriver:
    def test_modeled_covers_all_methods(self):
        points = modeled_sparse_weak_scaling(3, 10_000, 50, 16,
                                             grids=[(1, 1, 1), (2, 2, 2)])
        assert len(points) == 2 * 3
        assert {p.method for p in points} == {"naive", "dt", "msdt"}
        assert all(p.per_sweep_seconds > 0 for p in points)

    def test_modeled_default_grid_lists(self):
        points = modeled_sparse_weak_scaling(3, 10_000, 400, 64)
        assert len(points) == len(PAPER_GRIDS_ORDER3) * 3

    def test_executed_small_scale(self):
        points = executed_sparse_weak_scaling(
            3, 200, 8, 4, grids=[(1, 1, 1), (2, 1, 1)], n_sweeps=2, seed=0,
        )
        assert len(points) == 2 * 3
        assert all(p.source == "executed" for p in points)
        assert all(p.per_sweep_seconds >= 0 for p in points)

    def test_executed_wrong_grid_order_raises(self):
        with pytest.raises(ValueError):
            executed_sparse_weak_scaling(3, 200, 8, 4, grids=[(2, 2)], n_sweeps=1)


class TestBreakdownDriver:
    def test_modeled_breakdown_categories(self):
        out = modeled_breakdown(3, 400, 400, (2, 4, 4))
        assert set(out) == {"planc", "dt", "msdt", "pp-init", "pp-approx"}
        for per_cat in out.values():
            assert set(per_cat) == set(BREAKDOWN_CATEGORIES)

    def test_modeled_ttm_dominates_dt(self):
        out = modeled_breakdown(3, 400, 400, (8, 8, 8))
        dt = out["dt"]
        assert dt["ttm"] == max(dt.values())

    def test_modeled_pp_approx_has_no_ttm(self):
        out = modeled_breakdown(3, 400, 400, (2, 4, 4))
        assert out["pp-approx"]["ttm"] == 0.0

    def test_executed_breakdown_small(self):
        out = executed_breakdown(3, 5, 4, (2, 1, 1), n_sweeps=2, seed=0)
        assert set(out) == {"planc", "dt", "msdt", "pp-init", "pp-approx"}
        assert out["dt"]["ttm"] >= 0.0


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
        assert len(result.speedups) == 1
        assert result.speedups[0] > 0
        row = result.table3_row()
        assert set(row) == {"collinearity", "num_als", "num_pp_init",
                            "num_pp_approx", "median_speedup"}
        q25, q50, q75 = result.quartiles
        assert q25 <= q50 <= q75

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
            times = [t for t, _ in points]
            assert all(b >= a for a, b in zip(times, times[1:])), name
        row = curves.table4_row()
        assert row["tensor"] == "toy"
        assert row["n_pp_approx"] >= 0
        # the three methods start from the same initialization, so their final
        # fitness values must be close
        assert abs(curves.dt.fitness - curves.msdt.fitness) < 1e-6

    def test_time_to_fitness_and_speedup(self):
        tensor = random_low_rank_tensor((12, 12, 12), rank=3, noise=0.01, seed=2)
        curves = fitness_curve_comparison(tensor, rank=3, label="toy", n_sweeps=20,
                                          tol=0.0, pp_tol=0.3, seed=3)
        times = curves.time_to_fitness(0.0)
        assert all(np.isfinite(t) for t in times.values())
        assert curves.pp_speedup_to_common_fitness(margin=0.05) >= 0.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 5

    def test_format_table_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_breakdown(self):
        text = format_breakdown({"dt": {"ttm": 1.0, "solve": 0.5}})
        assert "dt" in text
        assert "ttm" in text
        assert "total" in text
