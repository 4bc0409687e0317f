"""Sparse MTTKRP kernels vs the dense einsum oracle (1e-10 parity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contract import default_engine, reset_default_engine
from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor, sparse_mttkrp, sparse_partial_mttkrp
from repro.tensor.mttkrp import mttkrp, partial_mttkrp

SHAPES = [(7, 6, 5), (5, 4, 6, 3)]


def _problem(shape, rank=3, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(shape)
    dense[rng.random(shape) >= density] = 0.0
    factors = [rng.random((s, rank)) for s in shape]
    return dense, CooTensor.from_dense(dense), factors


class TestParity:
    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4"])
    def test_matches_dense_oracle_all_modes(self, shape):
        dense, coo, factors = _problem(shape, seed=1)
        for mode in range(len(shape)):
            got = sparse_mttkrp(coo, factors, mode)
            expected = mttkrp(dense, factors, mode)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4"])
    def test_partial_matches_dense_oracle(self, shape):
        dense, coo, factors = _problem(shape, seed=2)
        order = len(shape)
        for keep in ([0], [order - 1], [0, order - 1], [0, 1]):
            got = sparse_partial_mttkrp(coo, factors, keep)
            expected = partial_mttkrp(dense, factors, keep)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_partial_keep_all_is_broadcast_tensor(self):
        dense, coo, factors = _problem((4, 3, 2), seed=3)
        got = sparse_partial_mttkrp(coo, factors, [0, 1, 2])
        np.testing.assert_allclose(got, partial_mttkrp(dense, factors, [0, 1, 2]),
                                   atol=1e-12)

    def test_partial_keep_none_fully_contracts(self):
        dense, coo, factors = _problem((4, 3, 2), seed=4)
        got = sparse_partial_mttkrp(coo, factors, [])
        expected = np.einsum("abc,ar,br,cr->r", dense, *factors)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_empty_slice_mode(self):
        """A mode with an all-zero fiber: its output row must be exactly zero."""
        dense, _, factors = _problem((6, 5, 4), seed=5)
        dense[2, :, :] = 0.0
        coo = CooTensor.from_dense(dense)
        assert 2 in coo.empty_slices(0)
        got = sparse_mttkrp(coo, factors, 0)
        np.testing.assert_allclose(got, mttkrp(dense, factors, 0), atol=1e-10)
        np.testing.assert_array_equal(got[2], 0.0)

    def test_all_zero_tensor_gives_zero_mttkrp(self):
        coo = CooTensor(np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 3, 2))
        factors = [np.ones((s, 2)) for s in (4, 3, 2)]
        np.testing.assert_array_equal(sparse_mttkrp(coo, factors, 1),
                                      np.zeros((3, 2)))

    @pytest.mark.parametrize("block_size", [1, 7, 64])
    def test_blockwise_independent_of_block_size(self, block_size):
        dense, coo, factors = _problem((6, 5, 4), seed=6)
        expected = mttkrp(dense, factors, 1)
        got = sparse_mttkrp(coo, factors, 1, block_size=block_size)
        np.testing.assert_allclose(got, expected, atol=1e-10)
        gotp = sparse_partial_mttkrp(coo, factors, [0, 2], block_size=block_size)
        np.testing.assert_allclose(gotp, partial_mttkrp(dense, factors, [0, 2]),
                                   atol=1e-10)

    def test_float32_backend(self):
        dense, coo, factors = _problem((6, 5, 4), seed=7)
        coo32 = coo.astype(np.float32)
        got = sparse_mttkrp(coo32, factors, 0)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, mttkrp(dense, factors, 0),
                                   rtol=1e-4, atol=1e-4)


class TestMechanics:
    def test_out_buffer(self):
        dense, coo, factors = _problem((6, 5, 4), seed=8)
        buf = np.full((6, 3), np.nan)
        got = sparse_mttkrp(coo, factors, 0, out=buf)
        assert got is buf
        np.testing.assert_allclose(buf, mttkrp(dense, factors, 0), atol=1e-10)
        with pytest.raises(ValueError, match="out must have shape"):
            sparse_mttkrp(coo, factors, 0, out=np.empty((5, 3)))
        with pytest.raises(ValueError, match="out must have dtype"):
            sparse_mttkrp(coo, factors, 0, out=np.empty((6, 3), dtype=np.float32))

    def test_rejects_dense_input(self):
        with pytest.raises(TypeError, match="CooTensor"):
            sparse_mttkrp(np.ones((3, 3)), [np.ones((3, 2))] * 2, 0)

    def test_invalid_arguments(self):
        _, coo, factors = _problem((4, 3, 2), seed=9)
        with pytest.raises(ValueError, match="block_size"):
            sparse_mttkrp(coo, factors, 0, block_size=0)
        with pytest.raises(ValueError, match="duplicates"):
            sparse_partial_mttkrp(coo, factors, [0, 0])
        with pytest.raises(ValueError, match="expected 3 factors"):
            sparse_mttkrp(coo, factors[:2], 0)

    def test_engine_plan_cache_is_hit(self):
        _, coo, factors = _problem((6, 5, 4), seed=10)
        reset_default_engine()
        sparse_mttkrp(coo, factors, 0)
        sparse_mttkrp(coo, factors, 0)
        assert default_engine().cache_info()["hits"] >= 1

    def test_tracker_accounting(self):
        _, coo, factors = _problem((6, 5, 4), seed=11)
        tracker = CostTracker()
        sparse_mttkrp(coo, factors, 0, tracker=tracker, category="mttkrp")
        assert tracker.flops_by_category["mttkrp"] > 0
        assert tracker.seconds_by_category["mttkrp"] > 0.0
