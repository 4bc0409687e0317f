"""Unit tests of the shared update-rule / sweep-kernel layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.initialization import prepare_als_inputs
from repro.core.normal_equations import (
    gamma_chain,
    gram_matrix,
    solve_normal_equations,
)
from repro.core.updates import (
    HalsUpdate,
    LeastSquaresUpdate,
    MaskedLeastSquaresUpdate,
    MultiplicativeUpdate,
    available_update_rules,
    cp_values_at,
    make_update_rule,
    sweep,
)
from repro.machine.cost_tracker import CostTracker
from repro.sparse.coo import CooTensor
from repro.tensor.cp_format import random_cp_tensor
from repro.trees.registry import make_provider

RANK = 3


def _prepared(tensor, engine, seed=0, dtype=None, tracker=None):
    tensor, factors, norm_t = prepare_als_inputs(
        tensor, RANK, min_order=2, seed=seed, dtype=dtype
    )
    provider = make_provider(engine, tensor, factors, tracker=tracker)
    grams = [gram_matrix(f) for f in factors]
    return provider, grams, norm_t


def _legacy_regular_sweep(provider, grams):
    """The pre-refactor inline ALS sweep, kept verbatim as the oracle."""
    order = provider.order
    mttkrp = None
    for mode in range(order):
        gamma = gamma_chain(grams, mode)
        mttkrp = provider.mttkrp(mode)
        updated = solve_normal_equations(gamma, mttkrp)
        provider.set_factor(mode, updated)
        grams[mode] = gram_matrix(updated)
    return mttkrp


class TestSweepBitIdentity:
    """sweep() must reproduce the pre-refactor loop bit for bit."""

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_least_squares_sweep_is_bit_identical(self, engine, backend):
        dense = random_cp_tensor((7, 6, 5), rank=RANK, seed=3).full()
        tensor = CooTensor.from_dense(dense) if backend == "sparse" else dense

        p_new, g_new, _ = _prepared(tensor, engine)
        p_old, g_old, _ = _prepared(tensor, engine)
        for _ in range(3):
            m_new = sweep(p_new, g_new)
            m_old = _legacy_regular_sweep(p_old, g_old)
            np.testing.assert_array_equal(m_new, m_old)
            for a, b in zip(p_new.factors, p_old.factors):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(g_new, g_old):
                np.testing.assert_array_equal(a, b)

    def test_float32_sweep_is_bit_identical(self):
        tensor = random_cp_tensor((6, 5, 4), rank=RANK, seed=5).full()
        p_new, g_new, _ = _prepared(tensor, "dt", dtype=np.float32)
        p_old, g_old, _ = _prepared(tensor, "dt", dtype=np.float32)
        for _ in range(2):
            # the legacy loop refreshed the Gram from the raw float64 solve,
            # not from the float32-cast stored factor — sweep() must too
            sweep(p_new, g_new)
            _legacy_regular_sweep(p_old, g_old)
            for a, b in zip(g_new, g_old):
                np.testing.assert_array_equal(a, b)

    def test_sweep_charges_the_same_flops(self):
        tensor = random_cp_tensor((7, 6, 5), rank=RANK, seed=3).full()
        t_new = CostTracker()
        p_new, g_new, _ = _prepared(tensor, "dt", tracker=t_new)
        sweep(p_new, g_new, tracker=t_new)

        t_old = CostTracker()
        p_old, g_old, _ = _prepared(tensor, "dt", tracker=t_old)
        for mode in range(p_old.order):
            gamma = gamma_chain(g_old, mode, tracker=t_old)
            m = p_old.mttkrp(mode)
            updated = solve_normal_equations(gamma, m, tracker=t_old)
            p_old.set_factor(mode, updated)
            g_old[mode] = gram_matrix(updated, tracker=t_old)
        assert t_new.flops_by_category == t_old.flops_by_category


class TestRuleFactory:
    def test_available_names(self):
        names = available_update_rules()
        for name in ("least_squares", "hals", "multiplicative"):
            assert name in names

    def test_default_is_least_squares(self):
        assert isinstance(make_update_rule(None), LeastSquaresUpdate)

    def test_multiplicative(self):
        assert isinstance(make_update_rule("multiplicative"), MultiplicativeUpdate)

    def test_instance_passthrough(self):
        rule = HalsUpdate()
        assert make_update_rule(rule) is rule

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown update rule"):
            make_update_rule("newton")

    def test_nonnegative_flags(self):
        assert not make_update_rule("least_squares").nonnegative
        assert make_update_rule("hals").nonnegative
        assert make_update_rule("multiplicative").nonnegative


class TestRowUpdates:
    """Direct update_rows properties on a fixed normal-equations system."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.factor = rng.random((10, RANK))
        full = rng.random((10, RANK))
        self.gamma = full.T @ full
        self.mttkrp = rng.standard_normal((10, RANK))

    def test_hals_output_is_nonnegative(self):
        out = HalsUpdate().update_rows(0, self.gamma, self.mttkrp, self.factor)
        assert (out >= 0).all()

    def test_multiplicative_output_is_nonnegative(self):
        out = MultiplicativeUpdate().update_rows(
            0, self.gamma, self.mttkrp, self.factor
        )
        assert (out >= 0).all()

    def test_multiplicative_keeps_zeros(self):
        factor = self.factor.copy()
        factor[:, 1] = 0.0
        out = MultiplicativeUpdate().update_rows(0, self.gamma, self.mttkrp, factor)
        np.testing.assert_array_equal(out[:, 1], 0.0)

    def test_hals_zeroes_dead_component(self):
        gamma = self.gamma.copy()
        gamma[1, :] = gamma[:, 1] = 0.0
        out = HalsUpdate().update_rows(0, gamma, self.mttkrp, self.factor)
        np.testing.assert_array_equal(out[:, 1], 0.0)

    def test_zero_rows_stay_zero_under_every_rule(self):
        # parallel padding correctness: padded rows have zero mttkrp rows and
        # zero factor rows and must remain exactly zero after the update
        for rule in (LeastSquaresUpdate(), HalsUpdate(), MultiplicativeUpdate()):
            factor = np.vstack([self.factor, np.zeros((2, RANK))])
            mttkrp = np.vstack([self.mttkrp, np.zeros((2, RANK))])
            out = rule.update_rows(0, self.gamma, mttkrp, factor)
            np.testing.assert_array_equal(out[-2:], 0.0)

    def test_rules_charge_flops(self):
        for rule in (LeastSquaresUpdate(), HalsUpdate(), MultiplicativeUpdate()):
            tracker = CostTracker()
            rule.update_rows(0, self.gamma, self.mttkrp, self.factor, tracker=tracker)
            assert tracker.total_flops > 0
            assert tracker.total_flops == rule.rows_flops(10, RANK)

    def test_cache_tokens_distinguish_rules(self):
        tokens = {
            make_update_rule(n).cache_token()
            for n in ("least_squares", "hals", "multiplicative")
        }
        assert len(tokens) == 3


class TestCpValuesAt:
    def test_matches_dense_reconstruction(self):
        cp = random_cp_tensor((5, 4, 3), rank=RANK, seed=2)
        dense = cp.full()
        indices = np.argwhere(np.ones_like(dense, dtype=bool))
        values = cp_values_at(indices, cp.factors)
        np.testing.assert_allclose(
            values.reshape(dense.shape), dense, atol=1e-12
        )


class TestMaskedRule:
    def test_canonicalizes_unsorted_duplicate_indices(self):
        indices = np.array([[2, 1, 0], [0, 0, 0], [2, 1, 0], [1, 0, 2]])
        rule = MaskedLeastSquaresUpdate(indices, shape=(3, 2, 3))
        assert rule.n_observed == 3
        expected = np.array([[0, 0, 0], [1, 0, 2], [2, 1, 0]])
        np.testing.assert_array_equal(rule.mask_indices, expected)

    def test_sequential_only(self):
        rule = MaskedLeastSquaresUpdate(np.zeros((1, 3), dtype=np.int64), (2, 2, 2))
        assert rule.sequential_only

    def test_wrong_index_shape_rejected(self):
        with pytest.raises(ValueError, match="mask_indices"):
            MaskedLeastSquaresUpdate(np.zeros((4, 2), dtype=np.int64), (3, 2, 3))
