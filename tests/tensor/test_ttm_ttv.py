"""Tests for the TTM and (batched) TTV kernels."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import repro.tensor.ttm as ttm_module
from repro.machine.cost_tracker import CostTracker
from repro.tensor.mttkrp import partial_mttkrp
from repro.tensor.ttm import first_contraction, multi_ttm, trailing_contraction, ttm
from repro.tensor.ttv import contract_intermediate_mode, multi_ttv, ttv


class TestTTM:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_einsum(self, small_tensor3, rng, mode):
        mat = rng.random((4, small_tensor3.shape[mode]))
        out = ttm(small_tensor3, mat, mode)
        subs_in = "abc"
        subs_out = subs_in.replace(subs_in[mode], "z")
        expected = np.einsum(f"{subs_in},z{subs_in[mode]}->{subs_out}", small_tensor3, mat)
        assert np.allclose(out, expected)
        assert out.shape[mode] == 4

    def test_transpose_flag(self, small_tensor3, rng):
        mat = rng.random((small_tensor3.shape[1], 4))
        assert np.allclose(
            ttm(small_tensor3, mat, 1, transpose=True),
            ttm(small_tensor3, mat.T, 1),
        )

    def test_shape_mismatch_raises(self, small_tensor3, rng):
        with pytest.raises(ValueError):
            ttm(small_tensor3, rng.random((4, 99)), 0)

    def test_multi_ttm_matches_sequential(self, small_tensor3, rng):
        mats = [rng.random((3, small_tensor3.shape[0])), rng.random((2, small_tensor3.shape[2]))]
        out = multi_ttm(small_tensor3, mats, [0, 2])
        expected = ttm(ttm(small_tensor3, mats[0], 0), mats[1], 2)
        assert np.allclose(out, expected)

    def test_multi_ttm_length_mismatch_raises(self, small_tensor3, rng):
        with pytest.raises(ValueError):
            multi_ttm(small_tensor3, [rng.random((2, 7))], [0, 1])

    def test_flop_and_time_recording(self, small_tensor3, rng):
        tracker = CostTracker()
        ttm(small_tensor3, rng.random((4, 7)), 0, tracker=tracker, category="ttm")
        assert tracker.flops_by_category["ttm"] == 2 * small_tensor3.size * 4
        assert tracker.seconds_by_category["ttm"] >= 0.0
        assert tracker.total_vertical_words > 0


class TestFirstContraction:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_partial_mttkrp(self, small_tensor3, factors3, mode):
        keep = [m for m in range(3) if m != mode]
        out = first_contraction(small_tensor3, factors3[mode], mode)
        expected = partial_mttkrp(small_tensor3, factors3, keep)
        # partial_mttkrp contracts *all* other modes; first_contraction only one,
        # so only compare when a single mode is contracted (order-3, keep 2 modes)
        assert out.shape == expected.shape
        # direct check against einsum
        subs = "abc"
        other = "".join(subs[m] for m in keep)
        manual = np.einsum(f"abc,{subs[mode]}r->{other}r", small_tensor3, factors3[mode])
        assert np.allclose(out, manual)

    def test_order4_shape(self, small_tensor4, factors4):
        out = first_contraction(small_tensor4, factors4[2], 2)
        expected_shape = tuple(
            s for i, s in enumerate(small_tensor4.shape) if i != 2
        ) + (3,)
        assert out.shape == expected_shape

    def test_wrong_factor_rows_raises(self, small_tensor3, rng):
        with pytest.raises(ValueError):
            first_contraction(small_tensor3, rng.random((99, 4)), 0)

    def test_records_ttm_flops(self, small_tensor3, factors3):
        tracker = CostTracker()
        first_contraction(small_tensor3, factors3[1], 1, tracker=tracker)
        assert tracker.flops_by_category["ttm"] == 2 * small_tensor3.size * 4


def _trailing_chain(tensor, factors):
    """The chain :func:`trailing_contraction` replaces: a first-level TTM of
    the last mode, then one mTTV per further trailing mode."""
    order, k = tensor.ndim, len(factors)
    array = first_contraction(tensor, factors[-1], order - 1)
    for j in range(k - 2, -1, -1):
        array = contract_intermediate_mode(array, factors[j], order - k + j)
    return array


class TestTrailingContraction:
    @pytest.mark.parametrize("shape,rank", [
        ((5, 7, 3, 11), 4),
        ((3, 5, 7, 2, 11), 3),
        ((2, 3, 5, 3, 2, 7), 2),
        ((7, 11, 13, 17), 1),
    ])
    @pytest.mark.parametrize("layout", ["c", "non-contiguous", "fortran-factors"])
    def test_matches_ttm_then_mttv(self, rng, shape, rank, layout):
        tensor = rng.random(shape)
        if layout == "non-contiguous":
            every_other = (slice(None, None, 2),) * len(shape)
            tensor = rng.random(tuple(2 * s for s in shape))[every_other]
        for k in range(2, len(shape)):
            factors = [rng.random((s, rank)) for s in shape[-k:]]
            if layout == "fortran-factors":
                factors = [np.asfortranarray(f) for f in factors]
            out = trailing_contraction(tensor, factors)
            expected = _trailing_chain(tensor, factors)
            assert out.shape == shape[:-k] + (rank,)
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)
            assert np.moveaxis(out, -1, 0).flags.c_contiguous  # rank-first buffer

    def test_float32_keeps_dtype(self, rng):
        tensor = rng.random((5, 7, 3, 11)).astype(np.float32)
        factors = [rng.random((s, 3)).astype(np.float32) for s in (3, 11)]
        out = trailing_contraction(tensor, factors)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, _trailing_chain(tensor, factors), rtol=1e-5)

    @pytest.mark.parametrize("unpacked", [1, 3 * 2 * 77, 10 * 2 * 77, 10**6])
    def test_row_blocks_with_a_remainder(self, rng, unpacked):
        """Of the 13 rows: blocks of 1; of 3 (four blocks, one row left over);
        of 8 (ten fit, one block, five left over); all in one GEMM."""
        tensor = rng.random((13, 7, 11))
        factors = [rng.random((s, 2)) for s in (7, 11)]
        with mock.patch.object(ttm_module, "_UNPACKED_GEMM", unpacked):
            out = trailing_contraction(tensor, factors)
        np.testing.assert_allclose(out, _trailing_chain(tensor, factors), rtol=1e-12, atol=0)

    def test_records_one_ttm_and_the_khatri_rao_product(self, rng):
        tensor = rng.random((4, 5, 6, 7))
        factors = [rng.random((s, 3)) for s in (5, 6, 7)]
        tracker = CostTracker()
        out = trailing_contraction(tensor, factors, tracker=tracker)
        assert tracker.flops_by_category == {"ttm": 2 * tensor.size * 3,
                                             "khatri_rao": (5 * 6 + 5 * 6 * 7) * 3}
        assert tracker.total_vertical_words == tensor.size + out.size

    def test_wrong_shapes_raise(self, rng):
        tensor = rng.random((4, 5, 6))
        with pytest.raises(ValueError, match="need 2 <= k < order"):
            trailing_contraction(tensor, [rng.random((6, 2))])
        with pytest.raises(ValueError, match="need 2 <= k < order"):
            trailing_contraction(tensor, [rng.random((s, 2)) for s in (4, 5, 6)])
        with pytest.raises(ValueError, match="cannot contract a mode of size 6"):
            trailing_contraction(tensor, [rng.random((5, 2)), rng.random((6, 3))])


class TestTTV:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_tensordot(self, small_tensor3, rng, mode):
        vec = rng.random(small_tensor3.shape[mode])
        out = ttv(small_tensor3, vec, mode)
        assert np.allclose(out, np.tensordot(small_tensor3, vec, axes=(mode, 0)))

    def test_wrong_length_raises(self, small_tensor3, rng):
        with pytest.raises(ValueError):
            ttv(small_tensor3, rng.random(99), 0)

    def test_multi_ttv_matches_manual(self, small_tensor4, rng):
        vecs = [rng.random(small_tensor4.shape[1]), rng.random(small_tensor4.shape[3])]
        out = multi_ttv(small_tensor4, vecs, [1, 3])
        expected = np.einsum("abcd,b,d->ac", small_tensor4, vecs[0], vecs[1])
        assert np.allclose(out, expected)

    def test_multi_ttv_order_independent(self, small_tensor4, rng):
        v1 = rng.random(small_tensor4.shape[0])
        v2 = rng.random(small_tensor4.shape[2])
        out_a = multi_ttv(small_tensor4, [v1, v2], [0, 2])
        out_b = multi_ttv(small_tensor4, [v2, v1], [2, 0])
        assert np.allclose(out_a, out_b)

    def test_multi_ttv_duplicate_modes_raise(self, small_tensor3, rng):
        v = rng.random(small_tensor3.shape[0])
        with pytest.raises(ValueError):
            multi_ttv(small_tensor3, [v, v], [0, 0])


class TestContractIntermediateMode:
    def test_matches_einsum(self, small_tensor3, factors3):
        intermediate = first_contraction(small_tensor3, factors3[2], 2)  # modes (0,1), rank
        out = contract_intermediate_mode(intermediate, factors3[1], axis=1)
        expected = np.einsum("abr,br->ar", intermediate, factors3[1])
        assert np.allclose(out, expected)

    def test_is_batched_ttv(self, small_tensor3, factors3):
        """Column r of the result is a TTV with column r of the factor."""
        intermediate = first_contraction(small_tensor3, factors3[2], 2)
        out = contract_intermediate_mode(intermediate, factors3[0], axis=0)
        for r in range(4):
            expected = intermediate[:, :, r].T @ factors3[0][:, r]
            assert np.allclose(out[:, r], expected)

    def test_axis_out_of_range_raises(self, small_tensor3, factors3):
        intermediate = first_contraction(small_tensor3, factors3[2], 2)
        with pytest.raises(ValueError):
            contract_intermediate_mode(intermediate, factors3[0], axis=2)

    def test_factor_shape_mismatch_raises(self, small_tensor3, factors3, rng):
        intermediate = first_contraction(small_tensor3, factors3[2], 2)
        with pytest.raises(ValueError):
            contract_intermediate_mode(intermediate, rng.random((99, 4)), axis=0)

    def test_records_mttv_flops(self, small_tensor3, factors3):
        tracker = CostTracker()
        intermediate = first_contraction(small_tensor3, factors3[2], 2)
        contract_intermediate_mode(intermediate, factors3[0], axis=0, tracker=tracker)
        assert tracker.flops_by_category["mttv"] == 2 * intermediate.size

    def test_requires_rank_axis(self, rng):
        with pytest.raises(ValueError):
            contract_intermediate_mode(rng.random(5), rng.random((5, 2)), axis=0)


def _traced_peak(call):
    """``(tracemalloc peak bytes, result)`` of a second, warm ``call()``."""
    call()
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class TestDenseTreeKernelsCopyNothing:
    """The two tree kernels read the tensor and the intermediate through views.

    Their only allocation is the output buffer, for every mode and axis: a
    transposed tensor-sized temporary (what einsum's two-operand path made for
    every middle mode) would show as a peak of several outputs.
    """

    SLACK = 16 * 1024  # view objects, shape tuples, the (s, R) factor copy

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(0)
        tensor = rng.random((24, 24, 24, 24))
        factors = [rng.random((24, 8)) for _ in range(4)]
        return tensor, factors

    @pytest.mark.parametrize("mode", range(4))
    def test_first_contraction_allocates_only_its_output(self, problem, mode):
        tensor, factors = problem
        peak, out = _traced_peak(lambda: first_contraction(tensor, factors[mode], mode))
        assert out.nbytes == tensor.nbytes // 24 * 8
        assert peak < out.nbytes + self.SLACK
        assert np.allclose(out, np.tensordot(tensor, factors[mode], axes=(mode, 0)),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("root", [0, 3])
    @pytest.mark.parametrize("axis", range(3))
    def test_mttv_allocates_only_its_output(self, problem, root, axis):
        tensor, factors = problem
        intermediate = first_contraction(tensor, factors[root], root)
        peak, out = _traced_peak(
            lambda: contract_intermediate_mode(intermediate, factors[1], axis))
        assert out.nbytes == intermediate.nbytes // 24
        assert peak < out.nbytes + self.SLACK

    def test_trailing_contraction_allocates_its_output_and_khatri_rao(self, problem):
        tensor, factors = problem
        peak, out = _traced_peak(lambda: trailing_contraction(tensor, factors[2:]))
        krp_bytes = 24 * 24 * 8 * 8
        # the broadcast product of two factors runs through the ufunc
        # iterator's buffers, a fixed cost that does not grow with the tensor
        ufunc_buffers = 2 * np.getbufsize() * 8
        assert out.nbytes == tensor.nbytes // (24 * 24) * 8
        assert peak < out.nbytes + krp_bytes + ufunc_buffers + self.SLACK
        assert np.allclose(out, _trailing_chain(tensor, factors[2:]), rtol=1e-12, atol=0)

    def test_pair_correction_in_both_orientations(self, problem):
        """A first-order correction (Eq. 6) on a pair intermediate and on its
        transposed view (the ``mode > other`` orientation) never copies it."""
        tensor, factors = problem
        pair = contract_intermediate_mode(
            first_contraction(tensor, factors[0], 0), factors[1], 0)
        for operator in (pair, np.transpose(pair, (1, 0, 2))):
            peak, out = _traced_peak(
                lambda: contract_intermediate_mode(operator, factors[3], 1))
            assert peak < pair.nbytes // 4  # no operator-sized temporary
            assert np.allclose(out, np.einsum("xyk,yk->xk", operator, factors[3]),
                               rtol=1e-12, atol=1e-12)
