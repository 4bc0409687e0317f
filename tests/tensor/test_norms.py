"""Tests for norms, residual and fitness."""

import numpy as np
import pytest

from repro.tensor.cp_format import reconstruct
from repro.tensor.mttkrp import mttkrp
from repro.tensor.norms import (
    cp_norm_squared,
    fitness,
    inner_product,
    relative_residual,
    residual_from_mttkrp,
    tensor_norm,
)


class TestBasicNorms:
    def test_tensor_norm_matches_numpy(self, small_tensor3):
        assert np.isclose(tensor_norm(small_tensor3), np.linalg.norm(small_tensor3))

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "c"])
    def test_tensor_norm_copies_nothing_for_any_memory_order(self, rng, layout):
        """An array contiguous in *some* axis order is flattened as a view:
        the tracemalloc peak stays far below one tensor (it was a full
        C-order copy for a transposed input)."""
        import tracemalloc

        base = rng.random((20, 20, 20, 20))
        tensor = {"transposed": base.transpose(2, 0, 3, 1),
                  "fortran": np.asfortranarray(base), "c": base}[layout]
        expected = float(np.sqrt(np.sum(base * base)))
        tensor_norm(tensor)
        tracemalloc.start()
        try:
            got = tensor_norm(tensor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(expected, rel=1e-12)
        assert peak < tensor.nbytes // 100

    def test_inner_product(self, rng):
        a, b = rng.random((3, 4, 5)), rng.random((3, 4, 5))
        assert np.isclose(inner_product(a, b), np.sum(a * b))

    def test_inner_product_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            inner_product(rng.random((2, 2)), rng.random((3, 3)))

    def test_cp_norm_squared_matches_dense(self, factors3):
        dense = reconstruct(factors3)
        assert np.isclose(cp_norm_squared(factors3), np.linalg.norm(dense) ** 2, rtol=1e-10)

    def test_cp_norm_squared_accepts_precomputed_grams(self, factors3):
        grams = [f.T @ f for f in factors3]
        assert np.isclose(cp_norm_squared(factors3), cp_norm_squared(factors3, grams))


class TestResidual:
    def test_exact_decomposition_residual_zero(self, factors3):
        tensor = reconstruct(factors3)
        assert relative_residual(tensor, factors3) < 1e-12
        assert fitness(tensor, factors3) > 1 - 1e-12

    def test_residual_matches_definition(self, small_tensor3, factors3):
        approx = reconstruct(factors3)
        expected = np.linalg.norm(small_tensor3 - approx) / np.linalg.norm(small_tensor3)
        assert np.isclose(relative_residual(small_tensor3, factors3), expected)

    def test_zero_tensor_raises(self, factors3):
        with pytest.raises(ValueError):
            relative_residual(np.zeros((7, 6, 5)), factors3)

    @pytest.mark.parametrize("order", [3, 4])
    def test_amortized_residual_matches_exact(self, order, rng):
        """Eq. (3) must agree with the direct Eq. (2) evaluation."""
        shape = (6, 5, 7) if order == 3 else (4, 5, 3, 6)
        rank = 3
        tensor = rng.random(shape)
        factors = [rng.random((s, rank)) for s in shape]
        grams = [f.T @ f for f in factors]
        last = order - 1
        m_last = mttkrp(tensor, factors, last)
        amortized = residual_from_mttkrp(
            tensor_norm(tensor), m_last, factors[last], grams, last_mode=last
        )
        exact = relative_residual(tensor, factors)
        assert np.isclose(amortized, exact, rtol=1e-8)

    def test_amortized_residual_defaults_to_last_mode(self, small_tensor3, factors3):
        grams = [f.T @ f for f in factors3]
        m_last = mttkrp(small_tensor3, factors3, 2)
        a = residual_from_mttkrp(tensor_norm(small_tensor3), m_last, factors3[2], grams)
        b = residual_from_mttkrp(
            tensor_norm(small_tensor3), m_last, factors3[2], grams, last_mode=2
        )
        assert a == b

    def test_amortized_residual_nonnegative_near_exact_fit(self, factors3):
        """Floating-point cancellation must not produce NaN for near-exact fits."""
        tensor = reconstruct(factors3)
        grams = [f.T @ f for f in factors3]
        m_last = mttkrp(tensor, factors3, 2)
        value = residual_from_mttkrp(tensor_norm(tensor), m_last, factors3[2], grams)
        assert np.isfinite(value)
        assert value >= 0.0

    def test_invalid_tensor_norm_raises(self, factors3):
        grams = [f.T @ f for f in factors3]
        with pytest.raises(ValueError):
            residual_from_mttkrp(0.0, np.zeros((5, 4)), factors3[2], grams)
