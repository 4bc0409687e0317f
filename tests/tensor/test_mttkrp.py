"""Tests for the MTTKRP reference kernels and partial contractions."""

import numpy as np
import pytest

from repro.machine.cost_tracker import CostTracker
from repro.tensor.mttkrp import mttkrp, partial_mttkrp
from repro.tensor.products import khatri_rao
from repro.tensor.unfold import unfold


class TestMTTKRP:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_oracle_order3(self, small_tensor3, factors3, mttkrp_oracle, mode):
        assert np.allclose(
            mttkrp(small_tensor3, factors3, mode),
            mttkrp_oracle(small_tensor3, factors3, mode),
        )

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_oracle_order4(self, small_tensor4, factors4, mttkrp_oracle, mode):
        assert np.allclose(
            mttkrp(small_tensor4, factors4, mode),
            mttkrp_oracle(small_tensor4, factors4, mode),
        )

    def test_unfolding_identity(self, small_tensor3, factors3):
        """The defining identity: M^(n) = T_(n) @ khatri_rao(other factors)."""
        for mode in range(3):
            others = [factors3[j] for j in range(3) if j != mode]
            direct = unfold(small_tensor3, mode) @ khatri_rao(others)
            assert np.allclose(direct, mttkrp(small_tensor3, factors3, mode))

    def test_cp_tensor_fixed_point(self):
        """For an exact CP tensor, MTTKRP(T, A, n) == A^(n) Gamma^(n)."""
        rng = np.random.default_rng(0)
        factors = [rng.random((s, 3)) for s in (5, 6, 7)]
        tensor = np.einsum("ar,br,cr->abc", *factors)
        grams = [f.T @ f for f in factors]
        for mode in range(3):
            gamma = np.ones((3, 3))
            for j in range(3):
                if j != mode:
                    gamma = gamma * grams[j]
            assert np.allclose(mttkrp(tensor, factors, mode), factors[mode] @ gamma)

    def test_wrong_factor_count_raises(self, small_tensor3, factors3):
        with pytest.raises(ValueError):
            mttkrp(small_tensor3, factors3[:2], 0)

    def test_wrong_factor_rows_raises(self, small_tensor3, factors3, rng):
        bad = list(factors3)
        bad[1] = rng.random((99, 4))
        with pytest.raises(ValueError):
            mttkrp(small_tensor3, bad, 0)

    def test_flop_recording(self, small_tensor3, factors3):
        tracker = CostTracker()
        mttkrp(small_tensor3, factors3, 0, tracker=tracker)
        assert tracker.total_flops == 2 * small_tensor3.size * 4


class TestPartialMTTKRP:
    def test_keep_single_mode_equals_mttkrp(self, small_tensor3, factors3):
        for mode in range(3):
            assert np.allclose(
                partial_mttkrp(small_tensor3, factors3, [mode]),
                mttkrp(small_tensor3, factors3, mode),
            )

    def test_keep_all_modes_broadcasts_tensor(self, small_tensor3, factors3):
        out = partial_mttkrp(small_tensor3, factors3, [0, 1, 2])
        assert out.shape == small_tensor3.shape + (4,)
        for r in range(4):
            assert np.array_equal(out[..., r], small_tensor3)

    def test_pair_matches_manual_einsum(self, small_tensor4, factors4):
        out = partial_mttkrp(small_tensor4, factors4, [0, 2])
        expected = np.einsum(
            "abcd,br,dr->acr", small_tensor4, factors4[1], factors4[3]
        )
        assert np.allclose(out, expected)

    def test_contracting_remaining_modes_reaches_leaf(self, small_tensor4, factors4):
        """Further contracting a pair intermediate gives the leaf MTTKRP (Eq. 4)."""
        pair = partial_mttkrp(small_tensor4, factors4, [1, 3])
        leaf_from_pair = np.einsum("bdr,dr->br", pair, factors4[3])
        assert np.allclose(leaf_from_pair, mttkrp(small_tensor4, factors4, 1))

    def test_keep_modes_unsorted_input_ok(self, small_tensor4, factors4):
        assert np.allclose(
            partial_mttkrp(small_tensor4, factors4, [2, 0]),
            partial_mttkrp(small_tensor4, factors4, [0, 2]),
        )

    def test_duplicate_keep_modes_raise(self, small_tensor3, factors3):
        with pytest.raises(ValueError):
            partial_mttkrp(small_tensor3, factors3, [0, 0])


class TestDtypePreservation:
    """Regression: the kernels used to re-cast float32 factors to float64,
    silently promoting every contraction of a dtype=np.float32 run."""

    def test_kernels_preserve_float32(self, rng):
        tensor = rng.random((5, 4, 3)).astype(np.float32)
        factors = [rng.random((s, 2)).astype(np.float32) for s in tensor.shape]
        assert mttkrp(tensor, factors, 0).dtype == np.float32
        assert partial_mttkrp(tensor, factors, [0, 2]).dtype == np.float32

    def test_int_tensor_still_promotes_to_float64(self, rng):
        tensor = rng.integers(0, 5, size=(4, 3, 2))
        factors = [rng.random((s, 2)) for s in tensor.shape]
        assert mttkrp(tensor, factors, 0).dtype == np.float64
