"""Tests for the pairwise-perturbation correction terms (Eqs. 5-8)."""

import numpy as np
import pytest

from repro.core.pp_corrections import (
    delta_gram,
    first_order_correction,
    pp_step_within_tolerance,
    second_order_correction,
)
from repro.machine.cost_tracker import CostTracker
from repro.tensor.mttkrp import mttkrp
from repro.trees.pp_operators import PairwiseOperators


class TestDeltaGram:
    def test_matches_definition(self, rng):
        factor = rng.random((6, 3))
        delta = rng.random((6, 3))
        assert np.allclose(delta_gram(factor, delta), factor.T @ delta)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            delta_gram(rng.random((4, 2)), rng.random((4, 3)))


class TestFirstOrderCorrection:
    def test_matches_einsum(self, rng):
        operator = rng.random((5, 6, 3))
        delta = rng.random((6, 3))
        expected = np.einsum("xyk,yk->xk", operator, delta)
        assert np.allclose(first_order_correction(operator, delta), expected)

    def test_zero_step_gives_zero(self, rng):
        operator = rng.random((4, 5, 2))
        assert np.allclose(first_order_correction(operator, np.zeros((5, 2))), 0.0)

    def test_records_mttv_flops(self, rng):
        tracker = CostTracker()
        operator = rng.random((4, 5, 2))
        first_order_correction(operator, rng.random((5, 2)), tracker=tracker)
        assert tracker.flops_by_category["mttv"] == 2 * operator.size

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            first_order_correction(rng.random((4, 5, 2)), rng.random((4, 2)))
        with pytest.raises(ValueError):
            first_order_correction(rng.random((4, 5)), rng.random((5, 2)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dense_operators_in_both_orientations(self, rng, dtype):
        """Operators as the dense PP build leaves them, used as ``(mode, other)``
        and as the transposed ``(other, mode)`` view, into every ``out=`` form."""
        tensor = rng.random((5, 4, 6, 3)).astype(dtype)
        factors = [rng.random((s, 2)).astype(dtype) for s in tensor.shape]
        operators = PairwiseOperators.build(tensor, factors)
        tol = 1e-4 if dtype == np.float32 else 1e-12
        for mode, other in [(0, 2), (2, 0), (3, 1), (1, 3)]:
            operator = operators.pair_operator(mode, other)
            delta = rng.random((tensor.shape[other], 2)).astype(dtype)
            expected = np.einsum("xyk,yk->xk", operator, delta)
            plain = first_order_correction(operator, delta)
            assert plain.dtype == dtype
            np.testing.assert_allclose(plain, expected, rtol=tol, atol=tol)
            buffer = np.full((tensor.shape[mode], 2), 7.0, dtype=dtype)
            assert first_order_correction(operator, delta, out=buffer) is buffer
            np.testing.assert_allclose(buffer, expected, rtol=tol, atol=tol)
            assert first_order_correction(operator, delta, out=buffer,
                                          accumulate=True) is buffer
            np.testing.assert_allclose(buffer, 2 * expected, rtol=tol, atol=tol)

    def test_accumulate_needs_a_buffer(self, rng):
        with pytest.raises(ValueError, match="requires an out= buffer"):
            first_order_correction(rng.random((4, 5, 2)), rng.random((5, 2)),
                                   accumulate=True)


class TestSecondOrderCorrection:
    def test_matches_bruteforce_formula(self, rng):
        order, rank = 4, 3
        factors = [rng.random((5, rank)) for _ in range(order)]
        deltas = [0.1 * rng.random((5, rank)) for _ in range(order)]
        grams = [f.T @ f for f in factors]
        dgrams = [f.T @ d for f, d in zip(factors, deltas)]
        mode = 1
        accumulator = np.zeros((rank, rank))
        for i in range(order):
            for j in range(i + 1, order):
                if mode in (i, j):
                    continue
                term = dgrams[i] * dgrams[j]
                for k in range(order):
                    if k in (i, j, mode):
                        continue
                    term = term * grams[k]
                accumulator += term
        expected = factors[mode] @ accumulator
        actual = second_order_correction(mode, factors[mode], grams, dgrams)
        assert np.allclose(actual, expected)

    def test_order3_single_pair(self, rng):
        rank = 2
        factors = [rng.random((4, rank)) for _ in range(3)]
        deltas = [rng.random((4, rank)) for _ in range(3)]
        grams = [f.T @ f for f in factors]
        dgrams = [f.T @ d for f, d in zip(factors, deltas)]
        expected = factors[0] @ (dgrams[1] * dgrams[2])
        assert np.allclose(second_order_correction(0, factors[0], grams, dgrams), expected)

    def test_zero_steps_give_zero(self, rng):
        rank = 2
        factors = [rng.random((4, rank)) for _ in range(3)]
        grams = [f.T @ f for f in factors]
        zeros = [np.zeros((rank, rank)) for _ in range(3)]
        assert np.allclose(second_order_correction(0, factors[0], grams, zeros), 0.0)

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            second_order_correction(0, rng.random((4, 2)), [np.eye(2)] * 3, [np.eye(2)] * 2)

    def test_mode_out_of_range_raises(self, rng):
        with pytest.raises(ValueError):
            second_order_correction(5, rng.random((4, 2)), [np.eye(2)] * 3, [np.eye(2)] * 3)


class TestWithinTolerance:
    def test_true_when_all_steps_small(self, rng):
        factors = [rng.random((5, 2)) + 1.0 for _ in range(3)]
        deltas = [1e-3 * f for f in factors]
        assert pp_step_within_tolerance(factors, deltas, 0.1)

    def test_false_when_any_step_large(self, rng):
        factors = [rng.random((5, 2)) + 1.0 for _ in range(3)]
        deltas = [1e-3 * f for f in factors]
        deltas[1] = factors[1].copy()
        assert not pp_step_within_tolerance(factors, deltas, 0.1)

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            pp_step_within_tolerance([rng.random((2, 2))], [], 0.1)


class TestApproximationQuality:
    def test_pp_approximation_error_is_second_order(self, rng):
        """The PP MTTKRP approximation error must shrink quadratically in ||dA||.

        This is the key analytical property behind pairwise perturbation (the
        first-order terms are exact, so the error is O(||dA||^2)).
        """
        shape = (7, 6, 5)
        rank = 3
        tensor = rng.random(shape)
        checkpoint = [rng.random((s, rank)) for s in shape]
        operators = PairwiseOperators.build(tensor, checkpoint)

        def approx_error(step_size: float) -> float:
            deltas = [step_size * rng.random((s, rank)) for s in shape]
            current = [c + d for c, d in zip(checkpoint, deltas)]
            grams = [f.T @ f for f in current]
            dgrams = [f.T @ d for f, d in zip(current, deltas)]
            worst = 0.0
            for mode in range(3):
                exact = mttkrp(tensor, current, mode)
                approx = operators.single(mode).copy()
                for other in range(3):
                    if other == mode:
                        continue
                    approx += first_order_correction(
                        operators.pair_operator(mode, other), deltas[other]
                    )
                approx += second_order_correction(mode, current[mode], grams, dgrams)
                worst = max(worst, np.linalg.norm(exact - approx) / np.linalg.norm(exact))
            return worst

        error_large = approx_error(0.1)
        error_small = approx_error(0.01)
        assert error_small < error_large
        # quadratic-ish decay: a 10x smaller step should shrink the error far
        # more than 10x (allow slack for the random directions)
        assert error_small < error_large / 20.0
