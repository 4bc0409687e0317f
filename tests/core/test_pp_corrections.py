"""Tests for the pairwise-perturbation correction terms (Eqs. 5-8)."""

import numpy as np
import pytest

from repro.core.normal_equations import gamma_chain, solve_normal_equations
from repro.core.pp_corrections import (
    delta_gram,
    fused_approx_update,
    pp_step_within_tolerance,
    second_order_accumulator,
    second_order_correction,
)
from repro.core.updates import make_update_rule
from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor
from repro.tensor.intermediate import rank_first
from repro.tensor.mttkrp import mttkrp
from repro.tensor.ttv import contract_intermediate_mode
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.sparse_pp import SemiSparsePairOperator


def _oriented(operators, mode, other):
    """``M_p^(mode, other)`` as a dense ``(s_mode, s_other, R)`` array."""
    dense = np.asarray(operators.pairs()[min(mode, other), max(mode, other)])
    return dense if mode < other else np.transpose(dense, (1, 0, 2))


class TestDeltaGram:
    def test_matches_definition(self, rng):
        factor = rng.random((6, 3))
        delta = rng.random((6, 3))
        assert np.allclose(delta_gram(factor, delta), factor.T @ delta)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            delta_gram(rng.random((4, 2)), rng.random((4, 3)))


class TestFirstOrderMttkrp:
    """``first_order_mttkrp`` against ``M_p^(n) + sum_i U^(n,i)`` in einsum."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_einsum_in_both_orientations(self, rng, dtype):
        """Each pair serves the mode before it and the mode after it, into a
        fresh result and into a given ``out=``."""
        tensor = rng.random((5, 4, 6, 3)).astype(dtype)
        factors = [rng.random((s, 2)).astype(dtype) for s in tensor.shape]
        deltas = [rng.random(f.shape).astype(dtype) for f in factors]
        operators = PairwiseOperators.build(tensor, factors)
        tol = 1e-4 if dtype == np.float32 else 1e-12
        for mode in range(4):
            expected = operators.single(mode) + sum(
                np.einsum("xyk,yk->xk", _oriented(operators, mode, other), deltas[other])
                for other in range(4) if other != mode)
            got = operators.first_order_mttkrp(mode, deltas)
            assert got.dtype == dtype
            np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)
            buffer = np.full((tensor.shape[mode], 2), 7.0, dtype=dtype)
            assert operators.first_order_mttkrp(mode, deltas, out=buffer) is buffer
            np.testing.assert_allclose(buffer, expected, rtol=tol, atol=tol)

    def test_records_mttv_flops(self, rng):
        tensor = rng.random((4, 5, 3))
        factors = [rng.random((s, 2)) for s in tensor.shape]
        operators = PairwiseOperators.build(tensor, factors)
        tracker = CostTracker()
        operators.first_order_mttkrp(1, factors, tracker=tracker)
        # the pairs (0, 1) and (1, 2), two flops per element
        assert tracker.flops_by_category["mttv"] == 2 * (4 * 5 + 5 * 3) * 2

    def test_delta_shape_mismatch_raises(self, rng):
        tensor = rng.random((4, 5, 3))
        factors = [rng.random((s, 2)) for s in tensor.shape]
        operators = PairwiseOperators.build(tensor, factors)
        with pytest.raises(ValueError, match="delta factor 2"):
            operators.first_order_mttkrp(0, [factors[0], factors[1], factors[1]])
        with pytest.raises(ValueError, match="expected 3 delta factors"):
            operators.first_order_mttkrp(0, factors[:2])


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


def _triple_loop_accumulator(mode, grams, dgrams):
    """Eq. (7) written out: one term per pair ``i < j``, both different from ``mode``."""
    order = len(grams)
    accumulator = np.zeros_like(grams[0])
    for i in range(order):
        for j in range(i + 1, order):
            if mode in (i, j):
                continue
            term = dgrams[i] * dgrams[j]
            for k in range(order):
                if k not in (i, j, mode):
                    term = term * grams[k]
            accumulator += term
    return accumulator


class TestSecondOrderAccumulator:
    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_matches_the_written_out_sum(self, rng, order):
        rank = 4
        grams = [rng.random((rank, rank)) + 0.5 for _ in range(order)]
        dgrams = [rng.standard_normal((rank, rank)) for _ in range(order)]
        for mode in range(order):
            accumulator, flops = second_order_accumulator(mode, grams, dgrams)
            np.testing.assert_allclose(
                accumulator, _triple_loop_accumulator(mode, grams, dgrams),
                rtol=1e-12, atol=1e-12)
            # the model charges the written-out sum: N - 1 Hadamard products
            # (the last one the accumulation) for each of the C(N-1, 2) pairs
            n_pairs = (order - 1) * (order - 2) // 2
            assert flops == n_pairs * (order - 1) * rank * rank

    def test_inputs_are_left_alone(self, rng):
        grams = [rng.random((3, 3)) for _ in range(4)]
        dgrams = [rng.random((3, 3)) for _ in range(4)]
        before = [m.copy() for m in grams + dgrams]
        second_order_accumulator(1, grams, dgrams)
        assert all(np.array_equal(a, b) for a, b in zip(before, grams + dgrams))

    def test_correction_charges_the_model_flops(self, rng):
        order, rank, rows = 5, 3, 7
        grams = [rng.random((rank, rank)) for _ in range(order)]
        tracker = CostTracker()
        second_order_correction(2, rng.random((rows, rank)), grams, grams, tracker=tracker)
        assert tracker.flops_by_category["hadamard"] == 6 * 4 * rank * rank
        assert tracker.flops_by_category["others"] == 2 * rows * rank * rank


def _problem(shape, rank, sparse, dtype=np.float64, seed=3):
    """Operators at a checkpoint, a current iterate nearby and its Gram data."""
    rng = np.random.default_rng(seed)
    tensor = rng.random(shape).astype(dtype)
    if sparse:
        tensor = tensor * (rng.random(shape) < 0.4)
    checkpoint = [rng.random((s, rank)).astype(dtype) for s in shape]
    operators = PairwiseOperators.build(
        CooTensor.from_dense(tensor).astype(dtype) if sparse else tensor, checkpoint)
    deltas = [(0.05 * rng.standard_normal((s, rank))).astype(dtype) for s in shape]
    current = [c + d for c, d in zip(checkpoint, deltas)]
    grams = [f.T @ f for f in current]
    dgrams = [f.T @ d for f, d in zip(current, deltas)]
    return operators, current, deltas, grams, dgrams


def _unfused_first_order(operators, mode, deltas, tracker=None):
    """Eq. (5) up to first order, one single-pair kernel call per pair: the
    fiber contraction of a semi-sparse operator, the batched matrix-vector
    product on the second axis of a dense one (transposed when ``mode`` is
    the pair's second mode)."""
    total = operators.single(mode).copy()
    for other in range(operators.order):
        if other == mode:
            continue
        operator = operators.pairs()[min(mode, other), max(mode, other)]
        if isinstance(operator, SemiSparsePairOperator):
            total += operator.contract_other(deltas[other], 0 if mode < other else 1,
                                             tracker=tracker)
        else:
            oriented = operator if mode < other else np.transpose(operator, (1, 0, 2))
            total += contract_intermediate_mode(oriented, deltas[other], 1,
                                                tracker=tracker)
    return total


_SHAPES = [(5, 4, 6), (5, 4, 6, 3), (3, 4, 2, 5, 3)]


class TestApproximatedStep:
    """``PairwiseOperators.first_order_mttkrp`` and ``fused_approx_update``
    against the unfused spelling, which lives here and nowhere under ``src``."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "semi-sparse"])
    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("shape", _SHAPES, ids=["order3", "order4", "order5"])
    def test_matches_the_unfused_spelling(self, shape, rank, sparse):
        operators, current, deltas, grams, dgrams = _problem(shape, rank, sparse)
        rule = make_update_rule("least_squares")
        for mode in range(len(shape)):
            expected = _unfused_first_order(operators, mode, deltas)
            np.testing.assert_allclose(operators.first_order_mttkrp(mode, deltas),
                                       expected, rtol=1e-12, atol=1e-12)
            expected = expected + second_order_correction(
                mode, current[mode], grams, dgrams)
            gamma = gamma_chain(grams, mode)
            updated, mtilde = fused_approx_update(
                operators, mode, current[mode], deltas, grams, dgrams, gamma, rule)
            np.testing.assert_allclose(mtilde, expected, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(updated, solve_normal_equations(gamma, expected),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "semi-sparse"])
    def test_out_is_reused_across_sweeps_and_aliases_mtilde(self, sparse):
        operators, current, deltas, grams, dgrams = _problem((5, 4, 6, 3), 2, sparse)
        rule = make_update_rule("least_squares")
        gamma = gamma_chain(grams, 1)
        workspace = np.full((4, 2), 7.0)
        first = fused_approx_update(operators, 1, current[1], deltas, grams, dgrams,
                                    gamma, rule, out=workspace)[1]
        assert first is workspace
        kept = workspace.copy()
        halved = [0.5 * d for d in deltas]
        second = fused_approx_update(operators, 1, current[1], halved, grams, dgrams,
                                     gamma, rule, out=workspace)[1]
        assert second is workspace
        assert not np.allclose(workspace, kept)
        np.testing.assert_allclose(
            workspace,
            _unfused_first_order(operators, 1, halved)
            + second_order_correction(1, current[1], grams, dgrams),
            rtol=1e-12, atol=1e-12)
        # the same deltas again give the same values again: the scratch of an
        # earlier call leaks into no later one
        again = fused_approx_update(operators, 1, current[1], deltas, grams, dgrams,
                                    gamma, rule, out=workspace)[1]
        assert np.array_equal(again, kept)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "semi-sparse"])
    def test_float32_workspace_stays_float32(self, sparse):
        operators, current, deltas, grams, dgrams = _problem(
            (5, 4, 6, 3), 2, sparse, dtype=np.float32)
        rule = make_update_rule("least_squares")
        for mode in range(4):
            first_order = operators.first_order_mttkrp(mode, deltas)
            assert first_order.dtype == np.float32
            np.testing.assert_allclose(first_order,
                                       _unfused_first_order(operators, mode, deltas),
                                       rtol=1e-4, atol=1e-4)
            workspace = np.empty((current[mode].shape[0], 2), dtype=np.float32)
            mtilde = fused_approx_update(
                operators, mode, current[mode], deltas, grams, dgrams,
                gamma_chain(grams, mode), rule, out=workspace)[1]
            assert mtilde is workspace and mtilde.dtype == np.float32

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "semi-sparse"])
    @pytest.mark.parametrize("shape", _SHAPES, ids=["order3", "order4", "order5"])
    def test_tracker_totals_equal_the_per_pair_sums(self, shape, sparse):
        operators, current, deltas, grams, dgrams = _problem(shape, 3, sparse)
        rule = make_update_rule("least_squares")
        fused, unfused = CostTracker(), CostTracker()
        for mode in range(len(shape)):
            gamma = gamma_chain(grams, mode)
            fused_approx_update(operators, mode, current[mode], deltas, grams, dgrams,
                                gamma, rule, tracker=fused)
            mtilde = _unfused_first_order(operators, mode, deltas, tracker=unfused)
            mtilde += second_order_correction(mode, current[mode], grams, dgrams,
                                              tracker=unfused)
            solve_normal_equations(gamma, mtilde, tracker=unfused)
        assert fused.flops_by_category == unfused.flops_by_category
        assert set(fused.flops_by_category) == {"mttv", "hadamard", "others", "solve"}
        assert fused.vertical_words_by_category == unfused.vertical_words_by_category
        assert fused.total_vertical_words > 0

    def test_each_pair_is_stored_once_rank_first(self):
        operators, _, deltas, _, _ = _problem((5, 4, 6, 3), 2, sparse=False)
        stored = operators.pairs()
        for operator in stored.values():
            assert rank_first(operator).flags.c_contiguous
        held = sum(op.size for op in stored.values())
        held += sum(operators.single(n).size for n in range(4))
        assert operators.memory_words() == held
        # the scratch a mode's first approximated update leaves on the
        # instance is held too: one (R, s_n) row per other mode
        for mode, rows in enumerate((5, 4, 6, 3)):
            operators.first_order_mttkrp(mode, deltas)
            held += 3 * 2 * rows
            assert operators.memory_words() == held
        operators.first_order_mttkrp(0, deltas)
        assert operators.memory_words() == held

    def test_zero_steps_give_the_checkpoint_mttkrp_exactly(self):
        for sparse in (False, True):
            operators, current, _, _, _ = _problem((5, 4, 6), 3, sparse)
            zeros = [np.zeros_like(f) for f in current]
            for mode in range(3):
                assert np.array_equal(operators.first_order_mttkrp(mode, zeros),
                                      operators.single(mode))

    def test_the_mode_s_own_delta_is_not_read(self):
        operators, _, deltas, _, _ = _problem((5, 4, 6), 3, sparse=False)
        expected = operators.first_order_mttkrp(1, deltas)
        assert np.array_equal(
            operators.first_order_mttkrp(1, [deltas[0], None, deltas[2]]), expected)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "semi-sparse"])
    def test_shape_checks(self, sparse):
        operators, _, deltas, _, _ = _problem((5, 4, 6), 3, sparse)
        with pytest.raises(ValueError):
            operators.first_order_mttkrp(0, deltas[:2])
        with pytest.raises(ValueError):
            operators.first_order_mttkrp(0, deltas, out=np.empty((4, 3)))
        with pytest.raises(ValueError):
            operators.first_order_mttkrp(0, [deltas[0], deltas[2], deltas[1]])
        with pytest.raises(ValueError):
            # a (1, R) step would broadcast silently if it were not checked
            operators.first_order_mttkrp(0, [deltas[0], deltas[1][:1], deltas[2]])


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
                    approx += np.einsum("xyk,yk->xk", _oriented(operators, mode, other),
                                        deltas[other])
                approx += second_order_correction(mode, current[mode], grams, dgrams)
                worst = max(worst, np.linalg.norm(exact - approx) / np.linalg.norm(exact))
            return worst

        error_large = approx_error(0.1)
        error_small = approx_error(0.01)
        assert error_small < error_large
        # quadratic-ish decay: a 10x smaller step should shrink the error far
        # more than 10x (allow slack for the random directions)
        assert error_small < error_large / 20.0
