"""Tests for the CPTensor container and random CP generation."""

import numpy as np
import pytest

from repro.tensor.cp_format import CPTensor, random_cp_tensor, reconstruct


class TestReconstruct:
    def test_rank_one_outer_product(self, rng):
        vectors = [rng.random(s) for s in (3, 4, 5)]
        factors = [v[:, None] for v in vectors]
        expected = np.einsum("a,b,c->abc", *vectors)
        assert np.allclose(reconstruct(factors), expected)

    def test_sum_of_rank_one_terms(self, rng):
        factors = [rng.random((s, 3)) for s in (4, 5, 6)]
        manual = sum(
            np.einsum("a,b,c->abc", factors[0][:, r], factors[1][:, r], factors[2][:, r])
            for r in range(3)
        )
        assert np.allclose(reconstruct(factors), manual)

    def test_weights_scale_components(self, rng):
        factors = [rng.random((s, 2)) for s in (3, 3, 3)]
        weights = np.array([2.0, 0.5])
        weighted = reconstruct(factors, weights=weights)
        scaled_factors = [factors[0] * weights[None, :]] + factors[1:]
        assert np.allclose(weighted, reconstruct(scaled_factors))

    def test_bad_weights_shape_raises(self, rng):
        factors = [rng.random((3, 2)) for _ in range(3)]
        with pytest.raises(ValueError):
            reconstruct(factors, weights=np.ones(3))

    @pytest.mark.parametrize("shape", [(6, 5, 4, 3), (8, 8, 8, 8), (5, 4, 3, 2, 3)])
    def test_result_is_c_contiguous_with_einsum_values(self, rng, shape):
        """einsum's optimised path returns these shapes with permuted strides;
        consumers must not each pay a strided copy, and the values stay
        bit-identical to what einsum computed."""
        factors = [rng.random((s, 3)) for s in shape]
        letters = "abcde"[:len(shape)]
        spec = ",".join(c + "r" for c in letters) + "->" + letters
        for full in (reconstruct(factors), CPTensor(factors).full()):
            assert full.flags.c_contiguous and full.flags.writeable
            assert np.array_equal(full, np.einsum(spec, *factors, optimize=True))

    def test_collinearity_tensor_is_c_contiguous(self):
        from repro.data.collinearity import collinearity_tensor

        assert collinearity_tensor((8, 8, 8, 8), 4, seed=0).tensor.flags.c_contiguous


class TestCPTensor:
    def test_properties(self, factors3):
        cp = CPTensor(factors3)
        assert cp.order == 3
        assert cp.rank == 4
        assert cp.shape == (7, 6, 5)

    def test_full_matches_reconstruct(self, factors3):
        assert np.allclose(CPTensor(factors3).full(), reconstruct(factors3))

    def test_normalized_preserves_tensor(self, factors3):
        cp = CPTensor(factors3)
        normalized = cp.normalized()
        assert np.allclose(normalized.with_unit_weights().full(), cp.full())
        for f in normalized.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0)

    def test_norm_matches_dense(self, factors3):
        cp = CPTensor(factors3)
        assert np.isclose(cp.norm(), np.linalg.norm(cp.full()), rtol=1e-10)

    def test_norm_with_weights(self, factors3):
        weighted = CPTensor(factors3, weights=np.array([1.0, 2.0, 3.0, 0.5]))
        assert np.isclose(weighted.norm(), np.linalg.norm(weighted.full()), rtol=1e-10)

    def test_copy_is_independent(self, factors3):
        cp = CPTensor(factors3)
        duplicate = cp.copy()
        duplicate.factors[0][0, 0] += 1.0
        assert cp.factors[0][0, 0] != duplicate.factors[0][0, 0]

    def test_grams(self, factors3):
        cp = CPTensor(factors3)
        for gram, factor in zip(cp.grams(), factors3):
            assert np.allclose(gram, factor.T @ factor)

    def test_inconsistent_ranks_raise(self, rng):
        with pytest.raises(ValueError):
            CPTensor([rng.random((3, 2)), rng.random((3, 4))])

    def test_bad_weights_length_raises(self, factors3):
        with pytest.raises(ValueError):
            CPTensor(factors3, weights=np.ones(2))


class TestRandomCPTensor:
    def test_shapes(self):
        cp = random_cp_tensor((4, 5, 6), rank=3, seed=0)
        assert cp.shape == (4, 5, 6)
        assert cp.rank == 3

    def test_deterministic_given_seed(self):
        a = random_cp_tensor((4, 5), rank=2, seed=42).full()
        b = random_cp_tensor((4, 5), rank=2, seed=42).full()
        assert np.array_equal(a, b)

    def test_uniform_entries_in_unit_interval(self):
        cp = random_cp_tensor((10, 10), rank=4, seed=1, distribution="uniform")
        for f in cp.factors:
            assert f.min() >= 0.0 and f.max() < 1.0

    def test_normal_distribution_has_negative_entries(self):
        cp = random_cp_tensor((20, 20), rank=4, seed=1, distribution="normal")
        assert any((f < 0).any() for f in cp.factors)

    def test_unknown_distribution_raises(self):
        with pytest.raises(ValueError):
            random_cp_tensor((4, 4), rank=2, distribution="cauchy")

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            random_cp_tensor((4, 4), rank=0)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            random_cp_tensor((4, 0), rank=2)

    def test_noise_changes_factors(self):
        clean = random_cp_tensor((6, 6), rank=2, seed=3, noise=0.0)
        noisy = random_cp_tensor((6, 6), rank=2, seed=3, noise=0.5)
        assert not np.allclose(clean.factors[0], noisy.factors[0])
