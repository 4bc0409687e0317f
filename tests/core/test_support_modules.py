"""Tests for initialization, normal equations, options and results containers."""

import numpy as np
import pytest

from repro.core.initialization import init_factors
from repro.core.normal_equations import gamma_chain, gram_matrix, solve_normal_equations
from repro.core.options import ALSOptions, ParallelOptions, PPOptions
from repro.core.results import ALSResult, SweepRecord
from repro.machine.cost_tracker import CostTracker


class TestInitFactors:
    def test_uniform_shapes_and_range(self):
        factors = init_factors((4, 5, 6), rank=3, seed=0)
        assert [f.shape for f in factors] == [(4, 3), (5, 3), (6, 3)]
        for f in factors:
            assert f.min() >= 0.0 and f.max() < 1.0

    def test_deterministic_given_seed(self):
        a = init_factors((4, 5), 2, seed=3)
        b = init_factors((4, 5), 2, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_draws_one_uniform_stream_mode_by_mode(self):
        """Algorithm 1, line 2: mode ``n``'s factor is the next ``(I_n, R)``
        block of one uniform ``[0, 1)`` stream seeded by ``seed``."""
        rng = np.random.default_rng(7)
        expected = [rng.random((s, 3)) for s in (4, 5, 6)]
        for got, want in zip(init_factors((4, 5, 6), 3, seed=7), expected):
            assert np.array_equal(got, want)

    def test_different_seeds_differ(self):
        a = init_factors((4, 5), 2, seed=0)
        b = init_factors((4, 5), 2, seed=1)
        assert not any(np.array_equal(x, y) for x, y in zip(a, b))

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            init_factors((4, 5), 0)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            init_factors((4, 0), 2)


class TestNormalEquations:
    def test_gram_matrix(self, rng):
        factor = rng.random((6, 3))
        assert np.allclose(gram_matrix(factor), factor.T @ factor)

    def test_gram_records_cost(self, rng):
        tracker = CostTracker()
        gram_matrix(rng.random((6, 3)), tracker=tracker)
        assert tracker.total_flops == 2 * 6 * 9

    def test_gamma_chain_matches_hadamard(self, rng):
        grams = [rng.random((3, 3)) for _ in range(4)]
        expected = grams[0] * grams[2] * grams[3]
        assert np.allclose(gamma_chain(grams, 1), expected)

    def test_solve_well_conditioned(self, rng):
        gamma = np.diag([2.0, 3.0, 4.0]) + 0.1
        truth = rng.random((7, 3))
        rhs = truth @ gamma
        assert np.allclose(solve_normal_equations(gamma, rhs), truth, atol=1e-8)

    def test_solve_singular_falls_back_to_pinv(self, rng):
        gamma = np.outer(np.ones(3), np.ones(3))  # rank-1, singular
        rhs = rng.random((4, 3))
        out = solve_normal_equations(gamma, rhs)
        assert np.all(np.isfinite(out))
        # pinv solution satisfies the normal equations in the least-squares sense
        assert np.allclose(out @ gamma, rhs @ np.linalg.pinv(gamma) @ gamma, atol=1e-8)

    def test_solve_records_cost(self, rng):
        tracker = CostTracker()
        solve_normal_equations(np.eye(3), rng.random((5, 3)), tracker=tracker)
        assert tracker.flops_by_category["solve"] > 0
        assert tracker.seconds_by_category["solve"] >= 0

    def test_solve_validates_shapes(self, rng):
        with pytest.raises(ValueError):
            solve_normal_equations(rng.random((3, 2)), rng.random((4, 3)))
        with pytest.raises(ValueError):
            solve_normal_equations(np.eye(3), rng.random((4, 2)))

    def test_solve_with_ridge(self, rng):
        gamma = np.eye(2)
        rhs = rng.random((3, 2))
        out = solve_normal_equations(gamma, rhs, ridge=1e-6)
        assert np.allclose(out, rhs, atol=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gamma_raises_instead_of_returning_nan(self, rng, bad):
        """Regression: a NaN in Gamma used to come back as an all-NaN factor
        (Cholesky failed, the pseudo-inverse fallback propagated it)."""
        gamma = np.eye(4) + 0.1
        gamma[2, 1] = gamma[1, 2] = bad
        with pytest.raises(ValueError, match="Gamma is non-finite"):
            solve_normal_equations(gamma, rng.random((5, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_last_diagonal_entry_raises(self, rng, bad):
        gamma = np.eye(4) + 0.1
        gamma[-1, -1] = bad
        with pytest.raises(ValueError, match="Gamma is non-finite"):
            solve_normal_equations(gamma, rng.random((5, 4)))

    def test_rank_zero_solve_is_empty(self):
        assert solve_normal_equations(np.zeros((0, 0)), np.zeros((3, 0))).shape == (3, 0)

    def test_inf_in_the_mttkrp_is_caught_at_the_next_solve(self, rng):
        """An inf in the right-hand side costs nothing to let through (the
        solve returns a non-finite row) because the Gram matrix built from
        that factor makes the next mode's solve raise."""
        rhs = rng.random((5, 4))
        rhs[2, 1] = np.inf
        factor = solve_normal_equations(np.eye(4) + 0.1, rhs)
        assert not np.isfinite(factor[2]).all()
        assert np.isfinite(np.delete(factor, 2, axis=0)).all()
        gamma = gram_matrix(factor) * (np.eye(4) + 0.1)
        with pytest.raises(ValueError, match="Gamma is non-finite"):
            solve_normal_equations(gamma, rng.random((6, 4)))

    def test_singular_finite_gamma_still_takes_the_pseudo_inverse(self, rng):
        rhs = rng.random((5, 4))
        out = solve_normal_equations(np.ones((4, 4)), rhs)
        np.testing.assert_allclose(out, rhs @ np.linalg.pinv(np.ones((4, 4))),
                                   rtol=0, atol=1e-14)

    def test_lapack_argument_error_raises(self, rng, monkeypatch):
        from repro.core import normal_equations

        monkeypatch.setattr(normal_equations, "dpotrf",
                            lambda a, lower, clean: (a, -1))
        with pytest.raises(ValueError, match="argument 1"):
            solve_normal_equations(np.eye(3), rng.random((4, 3)))

    def test_float32_inputs_get_the_float64_solve(self, rng):
        """The drivers hand float32 MTTKRPs and Grams in and cast the result
        back themselves: the solve is the float64 one on the promoted values."""
        gamma = (np.eye(3) + 0.1).astype(np.float32)
        rhs = rng.random((6, 3)).astype(np.float32)
        out = solve_normal_equations(gamma, rhs)
        assert out.dtype == np.float64
        expected = solve_normal_equations(gamma.astype(np.float64),
                                          rhs.astype(np.float64))
        assert np.array_equal(out, expected)
        np.testing.assert_allclose(out @ gamma.astype(np.float64), rhs, atol=1e-12)

    def test_ridge_scale_is_relative_to_the_diagonal(self, rng):
        gamma = 100.0 * np.eye(3)
        rhs = rng.random((4, 3))
        out = solve_normal_equations(gamma, rhs, ridge=0.5)
        np.testing.assert_allclose(out, rhs / 150.0, atol=1e-14)


class TestOptions:
    def test_als_options_validation(self):
        options = ALSOptions(rank=4, n_sweeps=10)
        assert options.asdict()["rank"] == 4
        with pytest.raises(ValueError):
            ALSOptions(rank=0)
        with pytest.raises(ValueError):
            ALSOptions(rank=2, tol=-1.0)

    def test_pp_options_validation(self):
        options = PPOptions(rank=4, pp_tol=0.2)
        assert options.asdict()["pp_tol"] == 0.2
        assert options.mttkrp == "msdt"
        with pytest.raises(ValueError):
            PPOptions(rank=4, pp_tol=1.5)

    def test_parallel_options(self):
        options = ParallelOptions(rank=4, grid=(2, 2, 2))
        assert options.asdict()["grid"] == (2, 2, 2)


class TestResults:
    def _make_result(self):
        sweeps = [
            SweepRecord(0, "als", 0.5, 0.5, 1.0, 1.0),
            SweepRecord(1, "pp-init", 0.5, 0.5, 0.4, 1.4),
            SweepRecord(2, "pp-approx", 0.7, 0.3, 0.2, 1.6),
            SweepRecord(3, "pp-approx", 0.8, 0.2, 0.2, 1.8),
        ]
        return ALSResult(
            factors=[np.zeros((3, 2))], fitness=0.8, residual=0.2,
            n_sweeps=4, converged=True, sweeps=sweeps,
        )

    def test_sweep_counts(self):
        result = self._make_result()
        assert result.count_sweeps("als") == 1
        assert result.count_sweeps("pp-init") == 1
        assert result.count_sweeps("pp-approx") == 2

    def test_mean_sweep_seconds(self):
        result = self._make_result()
        assert result.mean_sweep_seconds("pp-approx") == pytest.approx(0.2)
        assert result.mean_sweep_seconds("missing") == 0.0

    def test_fitness_history_and_summary(self):
        result = self._make_result()
        history = result.fitness_history()
        assert history[0] == (1.0, 0.5)
        assert history[-1] == (1.8, 0.8)
        summary = result.sweep_type_summary()
        assert summary["pp-approx"]["count"] == 2

    def test_cp_property(self):
        result = self._make_result()
        assert result.cp.shape == (3,)

    def test_sweep_record_asdict(self):
        record = SweepRecord(0, "als", 0.9, 0.1, 0.5, 0.5, {"ttm": 0.3}, {"ttm": 100})
        data = record.asdict()
        assert data["type"] == "als"
        assert data["kernel_seconds"]["ttm"] == 0.3
