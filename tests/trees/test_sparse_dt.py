"""Sparse dimension-tree MTTKRP providers (`repro.trees.sparse_dt`).

Exactness against the dense oracle under arbitrary factor-update orders,
cache/versioning semantics (stale intermediates must never be reused — the
ISSUE-3 "cache invalidation on factor update order" satellite), amortization
accounting (fewer tracked flops than recompute), structural-cache reuse, and
byte-budget behavior of the semi-sparse intermediates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor, sparse_mttkrp
from repro.trees.registry import make_provider
from repro.trees.sparse_dt import (
    SemiSparseIntermediate,
    SparseDimensionTreeMTTKRP,
    SparseMultiSweepDimensionTree,
)

def reference_mttkrp(tensor, factors, mode):
    """Brute-force dense oracle (same construction as the shared fixture)."""
    letters = "abcdefgh"
    subs = letters[: tensor.ndim]
    operands, spec = [tensor], [subs]
    for j in range(tensor.ndim):
        if j == mode:
            continue
        operands.append(np.asarray(factors[j]))
        spec.append(subs[j] + "z")
    return np.einsum(",".join(spec) + "->" + subs[mode] + "z", *operands)


def _random_sparse(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random(shape) * (rng.random(shape) < density)
    return dense, CooTensor.from_dense(dense)


def _als_like_updates(provider, dense, factors, rng, n_sweeps=2, atol=1e-10):
    """Simulate ALS sweeps, checking every MTTKRP against the dense oracle."""
    for _ in range(n_sweeps):
        for mode in range(dense.ndim):
            got = provider.mttkrp(mode)
            expected = reference_mttkrp(dense, factors, mode)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(got - expected).max() <= atol * scale
            new = rng.random(factors[mode].shape)
            factors[mode] = new
            provider.set_factor(mode, new)


class TestExactness:
    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    @pytest.mark.parametrize("shape", [(6, 5), (7, 6, 5), (5, 4, 6, 3),
                                       (4, 3, 5, 3, 4)])
    def test_matches_dense_oracle_through_sweeps(self, engine, shape):
        dense, coo = _random_sparse(shape, density=0.3, seed=len(shape))
        rng = np.random.default_rng(1)
        factors = [rng.random((s, 3)) for s in shape]
        provider = make_provider(engine, coo, [f.copy() for f in factors])
        assert isinstance(provider, (SparseDimensionTreeMTTKRP,
                                     SparseMultiSweepDimensionTree))
        _als_like_updates(provider, dense, factors, rng)

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    def test_random_update_orders(self, engine):
        """Any update order (not just sweep order) must stay exact."""
        shape = (6, 5, 4)
        dense, coo = _random_sparse(shape, density=0.4, seed=9)
        rng = np.random.default_rng(2)
        factors = [rng.random((s, 2)) for s in shape]
        provider = make_provider(engine, coo, [f.copy() for f in factors])
        for step in range(24):
            mode = int(rng.integers(0, 3))
            got = provider.mttkrp(mode)
            expected = reference_mttkrp(dense, factors, mode)
            assert np.allclose(got, expected, atol=1e-10), (engine, step, mode)
            if rng.random() < 0.7:
                update_mode = int(rng.integers(0, 3))
                new = rng.random(factors[update_mode].shape)
                factors[update_mode] = new
                provider.set_factor(update_mode, new)

    def test_float32_stays_float32(self):
        _, coo = _random_sparse((6, 5, 4), density=0.4, seed=3)
        coo32 = coo.astype(np.float32)
        rng = np.random.default_rng(4)
        factors = [rng.random((s, 2), dtype=np.float32) for s in coo.shape]
        provider = make_provider("dt", coo32, factors)
        out = provider.mttkrp(0)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("engine", ["naive", "dt", "msdt"])
    def test_empty_tensor(self, engine):
        coo = CooTensor(np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 5, 6))
        rng = np.random.default_rng(5)
        factors = [rng.random((s, 2)) for s in coo.shape]
        provider = make_provider(engine, coo, factors)
        for mode in range(3):
            out = provider.mttkrp(mode)
            assert out.shape == (coo.shape[mode], 2) and np.all(out == 0.0)
            np.testing.assert_array_equal(sparse_mttkrp(coo, factors, mode), out)

    @pytest.mark.parametrize("engine", ["naive", "dt", "msdt"])
    @pytest.mark.parametrize("cells", [[(2, 1, 0)], [(2, 1, 0), (2, 1, 1)]],
                             ids=["one-nonzero", "one-fiber"])
    def test_single_nonzero_and_single_fiber(self, engine, cells):
        """One nonzero, or one fiber of two: every grouping is a single run."""
        dense = np.zeros((4, 3, 2))
        for k, cell in enumerate(cells):
            dense[cell] = 5.0 + k
        coo = CooTensor.from_dense(dense)
        rng = np.random.default_rng(6)
        factors = [rng.random((s, 2)) for s in dense.shape]
        provider = make_provider(engine, coo, [f.copy() for f in factors])
        for _ in range(2):
            for mode in range(3):
                np.testing.assert_allclose(provider.mttkrp(mode),
                                           reference_mttkrp(dense, factors, mode),
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    def test_gather_buffer_never_escapes(self, engine):
        """Every fiber step gathers into one reused buffer: an MTTKRP held
        across later calls must stay intact and never alias that buffer."""
        dense, coo = _random_sparse((5, 4, 6, 3), density=0.4, seed=11)
        rng = np.random.default_rng(12)
        factors = [rng.random((s, 3)) for s in dense.shape]
        provider = make_provider(engine, coo, [f.copy() for f in factors])
        held = [provider.mttkrp(mode) for mode in range(4)]
        for mode, got in enumerate(held):
            assert not np.shares_memory(got, provider._gather_buffer)
            np.testing.assert_allclose(got, reference_mttkrp(dense, factors, mode),
                                       rtol=1e-12, atol=1e-12)

    def test_huge_mode_products_do_not_overflow(self):
        """Fiber regrouping must not linearize coordinates: an order-5 tensor
        whose mode-size product exceeds int64 (2^80 here) still descends."""
        rng = np.random.default_rng(8)
        s, order = 2**16, 5
        idx = rng.integers(0, s, size=(64, order))
        coo = CooTensor(idx, rng.random(64), (s,) * order)
        factors = [rng.random((s, 2)) for _ in range(order)]
        tree = make_provider("dt", coo, [f.copy() for f in factors])
        recompute = make_provider("naive", coo, [f.copy() for f in factors])
        for mode in range(order):
            np.testing.assert_allclose(tree.mttkrp(mode),
                                       recompute.mttkrp(mode), atol=1e-12)

    def test_rejects_dense_input(self):
        rng = np.random.default_rng(6)
        dense = rng.random((3, 4))
        factors = [rng.random((3, 2)), rng.random((4, 2))]
        with pytest.raises(TypeError, match="CooTensor"):
            SparseDimensionTreeMTTKRP(dense, factors)


class TestCacheInvalidation:
    """Stale intermediates must never survive a factor update that touches them."""

    def _provider_with_warm_cache(self, engine="dt", seed=10):
        shape = (6, 5, 4)
        dense, coo = _random_sparse(shape, density=0.4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        factors = [rng.random((s, 2)) for s in shape]
        provider = make_provider(engine, coo, [f.copy() for f in factors])
        provider.mttkrp(0)  # caches M^(0,1) (contracted 2) and M^(0) (contracted 1,2)
        return provider, dense, factors, rng

    def test_entries_using_updated_factor_become_invalid(self):
        provider, dense, factors, rng = self._provider_with_warm_cache()
        entries = provider.cache.entries()
        assert {frozenset(e.modes) for e in entries} >= {frozenset({0, 1}),
                                                         frozenset({0})}
        # updating factor 2 invalidates everything (both entries contracted it)
        new = rng.random(factors[2].shape)
        factors[2] = new
        provider.set_factor(2, new)
        for entry in provider.cache.entries():
            assert 2 not in entry.versions_used, "stale entry survived the update"
        # and the next request must rebuild rather than reuse the old root
        misses_before = provider.cache.misses
        got = provider.mttkrp(0)
        assert provider.cache.misses > misses_before
        np.testing.assert_allclose(got, reference_mttkrp(dense, factors, 0),
                                    atol=1e-10)

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    @pytest.mark.parametrize("update_order", [(0, 1, 2), (2, 1, 0), (1, 2, 0),
                                              (2, 0, 1)])
    def test_results_exact_for_every_update_order(self, engine, update_order):
        """The satellite case: permuting the update order must not leak stale
        intermediates into later MTTKRPs."""
        shape = (6, 5, 4)
        dense, coo = _random_sparse(shape, density=0.4, seed=20)
        rng = np.random.default_rng(21)
        factors = [rng.random((s, 2)) for s in shape]
        provider = make_provider(engine, coo, [f.copy() for f in factors])
        # warm every path first
        for mode in range(3):
            provider.mttkrp(mode)
        for round_ in range(2):
            for mode in update_order:
                new = rng.random(factors[mode].shape)
                factors[mode] = new
                provider.set_factor(mode, new)
                for check_mode in range(3):
                    got = provider.mttkrp(check_mode)
                    expected = reference_mttkrp(dense, factors, check_mode)
                    assert np.allclose(got, expected, atol=1e-10), (
                        engine, update_order, round_, mode, check_mode
                    )

    def test_no_update_reuses_cached_result(self):
        provider, dense, factors, _ = self._provider_with_warm_cache()
        hits_before = provider.cache.hits
        first = provider.mttkrp(0)
        second = provider.mttkrp(0)
        assert provider.cache.hits > hits_before
        np.testing.assert_allclose(first, second)


class TestAmortization:
    def test_tree_tracks_fewer_flops_than_recompute(self):
        shape = (10, 10, 10)
        _, coo = _random_sparse(shape, density=0.2, seed=30)
        rng = np.random.default_rng(31)
        factors = [rng.random((s, 4)) for s in shape]

        def sweep_flops(engine):
            tracker = CostTracker()
            provider = make_provider(engine, coo, [f.copy() for f in factors],
                                     tracker=tracker)
            # warmup sweep, then measure one steady-state sweep
            for _ in range(2):
                for mode in range(3):
                    provider.mttkrp(mode)
                    provider.set_factor(mode, rng.random(factors[mode].shape))
            before = tracker.total_flops
            for mode in range(3):
                provider.mttkrp(mode)
                provider.set_factor(mode, rng.random(factors[mode].shape))
            return tracker.total_flops - before

        recompute = sweep_flops("naive")
        dt = sweep_flops("dt")
        msdt = sweep_flops("msdt")
        assert dt < recompute
        assert msdt <= dt

    def test_structural_caches_are_reused_across_sweeps(self):
        shape = (8, 7, 6)
        _, coo = _random_sparse(shape, density=0.3, seed=32)
        rng = np.random.default_rng(33)
        factors = [rng.random((s, 2)) for s in shape]
        provider = make_provider("dt", coo, [f.copy() for f in factors])
        for _ in range(2):
            for mode in range(3):
                provider.mttkrp(mode)
                provider.set_factor(mode, rng.random(factors[mode].shape))
        stats_after_two = provider.structure_stats()
        for _ in range(3):
            for mode in range(3):
                provider.mttkrp(mode)
                provider.set_factor(mode, rng.random(factors[mode].shape))
        # further sweeps add no structural state: pattern-only, built once
        assert provider.structure_stats() == stats_after_two
        assert stats_after_two["csf_layouts"] >= 1
        assert stats_after_two["fiber_steps"] >= 1

    @pytest.mark.parametrize("engine", ["dt", "msdt"])
    def test_sum_operators_are_built_once(self, engine):
        shape = (8, 7, 6, 5)
        _, coo = _random_sparse(shape, density=0.3, seed=36)
        rng = np.random.default_rng(37)
        factors = [rng.random((s, 2)) for s in shape]
        provider = make_provider(engine, coo, [f.copy() for f in factors])
        assert provider.structure_stats()["operators"] == 0

        def sweep():
            for mode in range(len(shape)):
                provider.mttkrp(mode)
                provider.set_factor(mode, rng.random(factors[mode].shape))

        sweep()
        if engine == "msdt":  # its root mode rotates: N sweeps visit every root
            for _ in range(len(shape) - 1):
                sweep()
        warm = provider.structure_stats()
        # one operator per root contraction and per fiber regrouping, and
        # their bytes are part of the structural footprint
        assert warm["operators"] == len(provider._root_steps) + warm["fiber_steps"]
        assert warm["operators"] >= 2
        assert warm["operator_bytes"] >= 12 * coo.nnz  # >= one root's values + columns
        root_ops = [step.contract for step in provider._root_steps.values()]
        for _ in range(3):
            sweep()
        assert provider.structure_stats() == warm
        assert all(a is b.contract for a, b in
                   zip(root_ops, provider._root_steps.values()))

    def test_last_fiber_step_yields_the_dense_mttkrp(self):
        """The step that leaves one mode sums into that mode's rows directly:
        empty slices are zero rows of its block, not missing fibers."""
        dense = np.zeros((6, 5, 4))
        rng = np.random.default_rng(38)
        dense[[0, 2, 5]] = rng.random((3, 5, 4)) * (rng.random((3, 5, 4)) < 0.5)
        dense[0, 0, 0] = 1.0
        coo = CooTensor.from_dense(dense)
        factors = [rng.random((s, 3)) for s in dense.shape]
        provider = make_provider("dt", coo, [f.copy() for f in factors])
        got = provider.mttkrp(0)
        np.testing.assert_allclose(got, reference_mttkrp(dense, factors, 0),
                                   atol=1e-12)
        assert not got[[1, 3, 4]].any()
        entry = provider.cache.find_valid(provider.versions, {0})
        assert entry.array.n_fibers == 6 and entry.array.block is got
        np.testing.assert_array_equal(entry.array.fibers[:, 0], np.arange(6))

    def test_semisparse_nbytes_and_densify(self):
        shape = (5, 4, 3)
        dense, coo = _random_sparse(shape, density=0.5, seed=36)
        rng = np.random.default_rng(37)
        factors = [rng.random((s, 2)) for s in shape]
        provider = make_provider("dt", coo, [f.copy() for f in factors])
        provider.mttkrp(0)
        entry = provider.cache.get_exact({0, 1}, provider.versions)
        assert entry is not None
        semi = entry.array
        assert isinstance(semi, SemiSparseIntermediate)
        assert semi.nbytes == semi.fibers.nbytes + semi.block.nbytes
        # the semi-sparse M^(0,1) equals the dense partial MTTKRP (Eq. 4)
        expected = np.einsum("abc,cz->abz", dense, factors[2])
        np.testing.assert_allclose(semi.densify(shape), expected, atol=1e-12)


def _lexsort_fiber_step(fibers, pos, n_out, dtype):
    """A fiber step as it was built before ``lex_order``: the child columns
    re-sorted by ``np.lexsort`` (not at all when the last key is dropped),
    run offsets from the sorted columns, eagerly for every step."""
    from repro.sparse.csf import SegmentSum, run_starts

    child_cols = np.delete(fibers, pos, axis=1)
    n_parents, n_child = child_cols.shape
    if pos == fibers.shape[1] - 1:
        perm, cols = None, child_cols
    else:
        perm = np.lexsort(tuple(child_cols[:, j] for j in reversed(range(n_child))))
        cols = child_cols[perm]
    starts = run_starts([cols[:, j] for j in range(n_child)], n_parents)
    if n_child == 1:
        reduce = SegmentSum.scatter(child_cols[:, 0], n_out, dtype=dtype)
    else:
        reduce = SegmentSum(starts, n_parents, columns=perm, n_columns=n_parents,
                            dtype=dtype)
    return cols[starts], perm, starts, reduce


def _same_operator(a, b) -> bool:
    a, b = a._matrix, b._matrix
    return (a.format == b.format and a.shape == b.shape
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    and getattr(a, f).dtype == getattr(b, f).dtype
                    for f in ("data", "indices", "indptr")))


class TestFiberStepsEqualLexsortConstruction:
    @pytest.mark.parametrize("shape", [(7, 6, 5), (5, 1, 6, 4)])
    def test_every_step_of_every_descent(self, shape):
        """All ``(S, k)`` steps — every ``S`` of two or more modes, every
        ``k`` in it — have the child fibers and the sum operator of the
        ``np.lexsort`` construction, and the lazily built regrouping is its
        permutation and run offsets."""
        import itertools

        _, coo = _random_sparse(shape, density=0.35, seed=len(shape))
        rng = np.random.default_rng(40)
        provider = make_provider("dt", coo, [rng.random((s, 2)) for s in shape])
        order = len(shape)
        for size in range(2, order):
            for modes in itertools.combinations(range(order), size):
                fibers = np.unique(coo.indices[:, modes], axis=0)
                for pos, k in enumerate(modes):
                    step = provider._fiber_step(modes, k, fibers)
                    child_modes = modes[:pos] + modes[pos + 1:]
                    n_out = shape[child_modes[0]]
                    child, perm, starts, reduce = _lexsort_fiber_step(
                        fibers, pos, n_out, provider.dtype)
                    assert step.child_modes == child_modes
                    assert step.child_fibers.dtype == np.int64
                    np.testing.assert_array_equal(step.child_fibers, child)
                    np.testing.assert_array_equal(step.k_coords, fibers[:, pos])
                    assert _same_operator(step.reduce, reduce)
                    if size == 2:
                        np.testing.assert_array_equal(
                            step.out_fibers, np.arange(n_out)[:, None])
                        # the placement needs no order: nothing was sorted
                        assert (modes, k) not in provider._regroupings
                    else:
                        assert step.out_fibers is step.child_fibers
                    got_perm, got_starts = provider._regrouping(modes, k, fibers)
                    np.testing.assert_array_equal(got_starts, starts)
                    if got_perm is None:
                        assert perm is None or np.array_equal(
                            perm, np.arange(fibers.shape[0]))
                    else:
                        np.testing.assert_array_equal(got_perm, perm)

    def test_sweeps_never_regroup_into_a_single_mode(self):
        shape = (7, 6, 5, 4)
        _, coo = _random_sparse(shape, density=0.3, seed=41)
        rng = np.random.default_rng(42)
        for engine in ("dt", "msdt"):
            provider = make_provider(engine, coo, [rng.random((s, 2)) for s in shape])
            for _ in range(len(shape)):
                for mode in range(len(shape)):
                    provider.mttkrp(mode)
                    provider.set_factor(mode, rng.random((shape[mode], 2)))
            leaf_steps = [key for key in provider._fiber_steps if len(key[0]) == 2]
            assert leaf_steps
            assert provider._regroupings
            assert all(len(modes) > 2 for modes, _ in provider._regroupings)
