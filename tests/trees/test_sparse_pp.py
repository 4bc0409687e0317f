"""Unit tests for the semi-sparse PP operators and their build on sparse input."""

import gc
import weakref

import numpy as np
import pytest

from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor
from repro.sparse.csf import SegmentSum
from repro.tensor.mttkrp import mttkrp, partial_mttkrp
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider
from repro.trees.sparse_pp import SemiSparsePairOperator


def _sparse_instance(rng, shape, rank, density=0.3):
    dense = rng.random(shape) * (rng.random(shape) < density)
    dense[tuple(0 for _ in shape)] = 1.0  # never empty
    coo = CooTensor.from_dense(dense)
    factors = [rng.random((s, rank)) for s in shape]
    return dense, coo, factors


def _gather_scale_scatter(fibers, block, dims, factor, out_axis, out=None,
                          accumulate=False):
    """``contract_other`` as a gather, scale and scatter: the factor rows of
    the fibers gathered into an ``n_fibers x R`` array, scaled in place by the
    fiber block, and added into their output rows by a placement operator in
    fiber order.  The oracle the block-diagonal product must equal bit for bit."""
    other = 1 - out_axis
    if out is None:
        out = np.zeros((dims[out_axis], block.shape[1]), dtype=block.dtype)
    elif not accumulate:
        out.fill(0.0)
    if fibers.shape[0]:
        rows = factor[fibers[:, other]].astype(np.result_type(factor, block), copy=False)
        np.einsum("fr,fr->fr", block, rows, out=rows)
        out += SegmentSum.scatter(fibers[:, out_axis], dims[out_axis],
                                  dtype=block.dtype) @ rows
    return out


def _assert_matches_gather_scale_scatter(operator, rng, factor_dtype=None):
    """Both axes, overwriting and accumulating, ``np.array_equal`` and same dtype."""
    for out_axis in (0, 1):
        shape = (operator.dims[1 - out_axis], operator.rank)
        factor = rng.random(shape).astype(factor_dtype or operator.block.dtype)
        expected = _gather_scale_scatter(operator.fibers, operator.block,
                                         operator.dims, factor, out_axis)
        got = operator.contract_other(factor, out_axis)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        start = rng.random(expected.shape).astype(expected.dtype)
        expected = _gather_scale_scatter(operator.fibers, operator.block,
                                         operator.dims, factor, out_axis,
                                         out=start.copy(), accumulate=True)
        got = operator.contract_other(factor, out_axis, out=start.copy(),
                                      accumulate=True)
        assert np.array_equal(got, expected)


class TestBuilder:
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_operators_match_dense_kernels(self, order, rng):
        shape = tuple(int(rng.integers(3, 6)) for _ in range(order))
        dense, coo, factors = _sparse_instance(rng, shape, rank=3)
        ops = PairwiseOperators.build(coo, factors)
        pairs = ops.pairs()
        assert sorted(pairs) == [(i, j) for i in range(order)
                                 for j in range(i + 1, order)]
        for (i, j), op in pairs.items():
            assert isinstance(op, SemiSparsePairOperator)
            assert op.n_fibers <= min(coo.nnz, shape[i] * shape[j])
            np.testing.assert_allclose(
                op.densify(), partial_mttkrp(dense, factors, [i, j]), atol=1e-12
            )
        for n in range(order):
            np.testing.assert_allclose(
                ops.single(n), mttkrp(dense, factors, n), atol=1e-12
            )

    def test_provider_cache_reuse_saves_flops(self, rng):
        dense, coo, factors = _sparse_instance(rng, (8, 7, 6, 5), rank=3)
        tracker = CostTracker()
        provider = make_provider("msdt", coo, [f.copy() for f in factors],
                                 tracker=tracker)
        for mode in range(4):  # warm the sweep cache
            provider.mttkrp(mode)
        before = tracker.total_flops
        shared = PairwiseOperators.build(coo, provider.factors,
                                         tracker=tracker, provider=provider)
        shared_flops = tracker.total_flops - before

        standalone_tracker = CostTracker()
        standalone = PairwiseOperators.build(coo, [f.copy() for f in factors],
                                             tracker=standalone_tracker)
        assert shared_flops < standalone_tracker.total_flops
        for i in range(4):
            for j in range(i + 1, 4):
                np.testing.assert_allclose(
                    np.asarray(shared.pairs()[i, j]),
                    np.asarray(standalone.pairs()[i, j]), atol=1e-12,
                )

    def test_second_checkpoint_reuses_the_pair_patterns(self, rng):
        """The index arrays of the pair operators' block-diagonal matrices
        depend on the pattern alone: the provider keeps them per pair across
        PP checkpoints, and only the data is new."""
        _, coo, factors = _sparse_instance(rng, (6, 5, 4), rank=2)
        # dt: the sweep's own structure is complete after one sweep
        provider = make_provider("dt", coo, [f.copy() for f in factors])

        def checkpoint():
            for mode in range(3):
                provider.mttkrp(mode)
                provider.set_factor(mode, rng.random(factors[mode].shape))
            ops = PairwiseOperators.build(coo, provider.factors, provider=provider)
            for (i, j), op in ops.pairs().items():  # both axes, as a PP sweep does
                op.contract_other(provider.factors[j], 0)
                op.contract_other(provider.factors[i], 1)
            return ops

        first = checkpoint()
        stats = provider.structure_stats()
        patterns = dict(provider._pair_patterns)
        assert sorted(patterns) == [(0, 1), (0, 2), (1, 2)]
        second = checkpoint()
        assert provider.structure_stats() == stats
        assert provider._pair_patterns == patterns  # same tuples of the same arrays
        for pair, (indices, indptr) in patterns.items():
            op = second.pairs()[pair]
            assert op.pattern[0] is indices and op.pattern[1] is indptr
            # new data, same pattern
            assert not np.shares_memory(op.block, first.pairs()[pair].block)

    def test_build_leaves_one_copy_of_each_pair_block(self, rng):
        """The operator's rank-first data replaces the descent's block in the
        provider's cache: the cached pair intermediates read the operator's
        array, and the blocks they held before the build are freed."""
        _, coo, factors = _sparse_instance(rng, (9, 8, 7), rank=3, density=0.5)
        provider = make_provider("dt", coo, [f.copy() for f in factors])
        for mode in range(3):
            provider.mttkrp(mode)
        cached = [weakref.ref(entry.array.block) for entry in provider.cache.entries()
                  if len(entry.modes) == 2]
        assert cached  # the sweep left a pair intermediate to build from
        ops = PairwiseOperators.build(coo, provider.factors, provider=provider)
        gc.collect()
        assert all(ref() is None for ref in cached)
        pairs_in_cache = 0
        for entry in provider.cache.entries():
            if len(entry.modes) == 2:
                assert entry.array.block is ops.pairs()[tuple(sorted(entry.modes))].block
                pairs_in_cache += 1
        assert pairs_in_cache == 3
        for op in ops.pairs().values():
            assert op.block.T.flags.c_contiguous

    def test_build_restores_provider_tracker(self, rng):
        _, coo, factors = _sparse_instance(rng, (5, 4, 3), rank=2)
        provider_tracker = CostTracker()
        provider = make_provider("dt", coo, [f.copy() for f in factors],
                                 tracker=provider_tracker)
        build_tracker = CostTracker()
        PairwiseOperators.build(coo, provider.factors, tracker=build_tracker,
                                provider=provider)
        assert provider.tracker is provider_tracker
        assert build_tracker.total_flops > 0
        # the provider keeps tracking its own sweeps into its own tracker
        base = provider_tracker.total_flops
        provider.mttkrp(0)
        assert provider_tracker.total_flops > base

    def test_non_tree_provider_builds_standalone(self, rng):
        """The recompute provider cannot donate a fiber cache, but the build
        must still go semi-sparse (no cache sharing)."""
        dense, coo, factors = _sparse_instance(rng, (5, 4, 3), rank=2)
        provider = make_provider("naive", coo, [f.copy() for f in factors])
        ops = PairwiseOperators.build(coo, provider.factors, provider=provider)
        assert all(isinstance(op, SemiSparsePairOperator)
                   for op in ops.pairs().values())
        np.testing.assert_allclose(
            np.asarray(ops.pairs()[0, 1]),
            partial_mttkrp(dense, factors, [0, 1]), atol=1e-12,
        )

    def test_provider_bound_to_other_tensor_raises(self, rng):
        _, coo, factors = _sparse_instance(rng, (5, 4, 3), rank=2)
        _, other, _ = _sparse_instance(rng, (5, 4, 3), rank=2)
        provider = make_provider("dt", other, [f.copy() for f in factors])
        with pytest.raises(ValueError, match="different tensor"):
            PairwiseOperators.build(coo, factors, provider=provider)

    def test_tree_provider_with_stale_factors_raises(self, rng):
        _, coo, factors = _sparse_instance(rng, (5, 4, 3), rank=2)
        provider = make_provider("msdt", coo, [f.copy() for f in factors])
        drifted = [f + 1.0 for f in factors]
        with pytest.raises(ValueError, match="checkpoint factors"):
            PairwiseOperators.build(coo, drifted, provider=provider)

    def test_order2_rejected(self, rng):
        coo = CooTensor.from_dense(rng.random((4, 4)))
        with pytest.raises(ValueError, match="order >= 3"):
            PairwiseOperators.build(coo, [rng.random((4, 2))] * 2)

    def test_empty_tensor_yields_zero_operators(self, rng):
        coo = CooTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), (4, 3, 2))
        factors = [rng.random((s, 2)) for s in coo.shape]
        ops = PairwiseOperators.build(coo, factors)
        for op in ops.pairs().values():
            assert op.n_fibers == 0
            assert not op.densify().any()
        for n in range(3):
            assert not ops.single(n).any()

    def test_float32_preserved(self, rng):
        dense, coo, factors = _sparse_instance(rng, (5, 4, 3), rank=2)
        coo32 = coo.astype(np.float32)
        factors32 = [f.astype(np.float32) for f in factors]
        ops = PairwiseOperators.build(coo32, factors32)
        assert all(op.block.dtype == np.float32 for op in ops.pairs().values())
        assert all(ops.single(n).dtype == np.float32 for n in range(3))


class TestContractOtherBitIdentity:
    """The block-diagonal sparse matrix-vector product adds each output row's
    fibers in fiber order, as the gather-scale-scatter did: equal bit for bit."""

    @pytest.mark.parametrize("shape", [(40, 30, 20), (9, 6, 5, 4), (6, 5, 4, 3, 7)],
                             ids=["order3", "order4", "order5"])
    def test_every_pair_of_a_build(self, shape, rng):
        _, coo, factors = _sparse_instance(rng, shape, rank=4)
        ops = PairwiseOperators.build(coo, factors)
        for op in ops.pairs().values():
            _assert_matches_gather_scale_scatter(op, rng)

    def test_no_fibers(self, rng):
        coo = CooTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), (4, 3, 2))
        ops = PairwiseOperators.build(coo, [rng.random((s, 2)) for s in coo.shape])
        for op in ops.pairs().values():
            assert op.n_fibers == 0
            _assert_matches_gather_scale_scatter(op, rng)

    def test_one_fiber(self, rng):
        coo = CooTensor(np.array([[2, 1, 0]]), np.array([1.5]), (4, 3, 2))
        ops = PairwiseOperators.build(coo, [rng.random((s, 3)) for s in coo.shape])
        for op in ops.pairs().values():
            assert op.n_fibers == 1
            _assert_matches_gather_scale_scatter(op, rng)

    def test_rank_one(self, rng):
        _, coo, factors = _sparse_instance(rng, (7, 5, 6), rank=1)
        for op in PairwiseOperators.build(coo, factors).pairs().values():
            _assert_matches_gather_scale_scatter(op, rng)

    def test_float32_stays_float32(self, rng):
        _, coo, factors = _sparse_instance(rng, (7, 5, 6), rank=3)
        ops = PairwiseOperators.build(coo.astype(np.float32),
                                      [f.astype(np.float32) for f in factors])
        for op in ops.pairs().values():
            assert op.block.dtype == np.float32
            _assert_matches_gather_scale_scatter(op, rng)  # float32 results

    @pytest.mark.parametrize("operator_dtype,factor_dtype",
                             [(np.float32, np.float64), (np.float64, np.float32)])
    def test_mixed_dtypes_follow_result_type(self, operator_dtype, factor_dtype, rng):
        _, coo, factors = _sparse_instance(rng, (7, 5, 6), rank=3)
        ops = PairwiseOperators.build(coo.astype(operator_dtype),
                                      [f.astype(operator_dtype) for f in factors])
        for op in ops.pairs().values():
            _assert_matches_gather_scale_scatter(op, rng, factor_dtype=factor_dtype)

    def test_rank_first_copy_is_exact_and_pattern_reused(self, rng):
        """A block is copied rank-first in chunks (here four of them, the last
        one partial); an operator given a pattern keeps it."""
        fibers = np.stack(np.divmod(np.arange(1000), 40), axis=1)
        block = rng.random((1000, 3))
        op = SemiSparsePairOperator((0, 1), fibers, block, (25, 40))
        assert np.array_equal(op.block, block)
        assert op.block.T.flags.c_contiguous and not np.shares_memory(op.block, block)
        again = SemiSparsePairOperator((0, 1), fibers, 2.0 * block, (25, 40),
                                       pattern=op.pattern)
        assert again.pattern is op.pattern
        _assert_matches_gather_scale_scatter(op, rng)
        _assert_matches_gather_scale_scatter(again, rng)


class TestSemiSparsePairOperator:
    @pytest.fixture()
    def op(self, rng):
        dense, coo, factors = _sparse_instance(rng, (6, 5, 4), rank=3)
        return PairwiseOperators.build(coo, factors).pairs()[0, 2], dense, factors

    def test_contract_other_both_axes(self, op, rng):
        operator, dense, factors = op
        dense_op = operator.densify()
        delta_j = rng.random((4, 3))
        np.testing.assert_allclose(
            operator.contract_other(delta_j, 0),
            np.einsum("xyk,yk->xk", dense_op, delta_j), atol=1e-12,
        )
        delta_i = rng.random((6, 3))
        np.testing.assert_allclose(
            operator.contract_other(delta_i, 1),
            np.einsum("xyk,xk->yk", dense_op, delta_i), atol=1e-12,
        )

    def test_contract_other_out_buffer(self, op, rng):
        operator, _, _ = op
        delta = rng.random((4, 3))
        out = np.full((6, 3), 99.0)
        got = operator.contract_other(delta, 0, out=out)
        assert got is out
        np.testing.assert_allclose(
            out, np.einsum("xyk,yk->xk", operator.densify(), delta), atol=1e-12
        )

    def test_contract_other_validation(self, op, rng):
        operator, _, _ = op
        with pytest.raises(ValueError, match="out_axis"):
            operator.contract_other(rng.random((4, 3)), 2)
        with pytest.raises(ValueError, match="incompatible"):
            operator.contract_other(rng.random((5, 3)), 0)
        with pytest.raises(ValueError, match="out must have shape"):
            operator.contract_other(rng.random((4, 3)), 0, out=np.zeros((2, 3)))

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_every_orientation_of_a_build(self, accumulate, rng):
        """Every ``(mode, other)`` orientation of a build, overwriting or
        adding into the caller's buffer, against the dense operator."""
        _, coo, factors = _sparse_instance(rng, (5, 4, 3), rank=3, density=0.4)
        ops = PairwiseOperators.build(coo, factors)
        for mode in range(3):
            for other in set(range(3)) - {mode}:
                op = ops.pairs()[min(mode, other), max(mode, other)]
                dense = np.asarray(op)
                if mode > other:
                    dense = np.transpose(dense, (1, 0, 2))
                delta = rng.random(factors[other].shape)
                expected = np.einsum("xyk,yk->xk", dense, delta)
                base = rng.random(expected.shape)
                out = op.contract_other(delta, 0 if mode < other else 1,
                                        out=base.copy(), accumulate=accumulate)
                np.testing.assert_allclose(out, base + expected if accumulate else expected,
                                           rtol=1e-12, atol=1e-12)

    def test_contract_tracks_mttv_costs(self, op, rng):
        operator, _, _ = op
        tracker = CostTracker()
        operator.contract_other(rng.random((4, 3)), 0, tracker=tracker)
        assert tracker.flops_by_category.get("mttv", 0) == \
            2 * operator.n_fibers * operator.rank

    def test_memory_words_counts_fiber_storage(self, rng):
        _, coo, factors = _sparse_instance(rng, (6, 5, 4), rank=3)
        ops = PairwiseOperators.build(coo, factors)
        expected = sum(op.fibers.size + op.block.size
                       for op in ops.pairs().values())
        expected += sum(ops.single(n).size for n in range(3))
        assert ops.memory_words() == expected

    def test_constructor_validation(self, rng):
        with pytest.raises(ValueError, match="i < j"):
            SemiSparsePairOperator((1, 0), np.zeros((0, 2), np.int64),
                                   np.zeros((0, 2)), (3, 3))
        with pytest.raises(ValueError, match="n_fibers, 2"):
            SemiSparsePairOperator((0, 1), np.zeros((0, 3), np.int64),
                                   np.zeros((0, 2)), (3, 3))
        with pytest.raises(ValueError, match="inconsistent"):
            SemiSparsePairOperator((0, 1), np.zeros((2, 2), np.int64),
                                   np.zeros((1, 2)), (3, 3))

    def test_constructor_rejects_unsorted_or_duplicate_fibers(self):
        """The segmented reductions assume the CSF invariant; violating it
        would silently drop contributions, so the constructor enforces it."""
        with pytest.raises(ValueError, match="lexicographically sorted"):
            SemiSparsePairOperator((0, 1), np.array([[1, 0], [0, 0]]),
                                   np.ones((2, 2)), (2, 2))
        with pytest.raises(ValueError, match="lexicographically sorted"):
            SemiSparsePairOperator((0, 1), np.array([[0, 1], [0, 1]]),
                                   np.ones((2, 2)), (2, 2))
