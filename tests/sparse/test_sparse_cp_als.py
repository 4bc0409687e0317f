"""Sparse backend through the drivers: provider registry, CP-ALS / PP-CP-ALS
parity with the dense path, PP operators, multi-start, and the zero-norm guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.multi_start import multi_start
from repro.core.options import ALSOptions, PPOptions
from repro.core.pp_cp_als import pp_cp_als
from repro.backend import check_tensor, is_sparse_tensor
from repro.sparse import CooTensor
from repro.tensor.norms import relative_residual, tensor_norm
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import available_providers, make_provider
from repro.trees.sparse import SparseCooMTTKRP, SparseUnfoldingMTTKRP
from repro.trees.sparse_dt import (
    SparseDimensionTreeMTTKRP,
    SparseMultiSweepDimensionTree,
)


def _sparsified_lowrank(shape, rank, density=0.35, seed=0):
    """A sparsified exact-low-rank tensor (dense twin + CooTensor)."""
    from repro.tensor.cp_format import random_cp_tensor

    rng = np.random.default_rng(seed)
    dense = random_cp_tensor(shape, rank, seed=rng).full()
    dense[rng.random(shape) >= density] = 0.0
    return dense, CooTensor.from_dense(dense)


class TestBackendDispatch:
    def test_is_sparse_tensor(self):
        coo = CooTensor.from_dense(np.eye(3))
        assert is_sparse_tensor(coo)
        assert not is_sparse_tensor(np.eye(3))

    def test_check_tensor_dispatch(self):
        coo = CooTensor.from_dense(np.eye(3))
        assert check_tensor(coo, min_order=2) is coo  # float64 already
        assert check_tensor(coo, dtype=np.float32).dtype == np.float32
        with pytest.raises(ValueError, match="order"):
            check_tensor(coo, min_order=3)
        dense = check_tensor(np.eye(3), min_order=2)
        assert dense.dtype == np.float64

    def test_tensor_norm_dispatch(self):
        dense = np.arange(12.0).reshape(3, 4)
        coo = CooTensor.from_dense(dense)
        assert tensor_norm(coo) == pytest.approx(tensor_norm(dense))

    def test_make_provider_dispatches_on_backend(self):
        dense, coo = _sparsified_lowrank((5, 4, 3), rank=2, seed=1)
        factors = [np.random.default_rng(2).random((s, 2)) for s in dense.shape]
        expected = {"naive": SparseCooMTTKRP, "unfolding": SparseUnfoldingMTTKRP,
                    "dt": SparseDimensionTreeMTTKRP, "msdt": SparseMultiSweepDimensionTree}
        assert list(expected) == available_providers()
        for name, cls in expected.items():
            provider = make_provider(name, coo, [f.copy() for f in factors])
            assert isinstance(provider, cls)
        with pytest.raises(ValueError, match="unknown MTTKRP engine"):
            make_provider("nope", coo, factors)

    def test_sparse_providers_match_dense_provider(self):
        dense, coo = _sparsified_lowrank((6, 5, 4), rank=3, seed=3)
        factors = [np.random.default_rng(4).random((s, 3)) for s in dense.shape]
        oracle = make_provider("naive", dense, [f.copy() for f in factors])
        for name in ("naive", "unfolding"):
            provider = make_provider(name, coo, [f.copy() for f in factors])
            for mode in range(3):
                np.testing.assert_allclose(provider.mttkrp(mode),
                                           oracle.mttkrp(mode), atol=1e-10, err_msg=name)


class TestCpAlsParity:
    @pytest.mark.parametrize("shape,rank", [((9, 8, 7), 3), ((6, 5, 4, 5), 2)],
                             ids=["order3", "order4"])
    @pytest.mark.parametrize("engine", ["naive", "unfolding"])
    def test_full_sweeps_match_dense_path(self, shape, rank, engine):
        dense, coo = _sparsified_lowrank(shape, rank, seed=5)
        initial = init_factors(shape, rank, seed=6)
        ref = cp_als(dense, ALSOptions(rank=rank, n_sweeps=8, tol=0.0, mttkrp="naive"),
                     initial_factors=initial)
        got = cp_als(coo, ALSOptions(rank=rank, n_sweeps=8, tol=0.0, mttkrp=engine),
                     initial_factors=initial)
        assert got.residual == pytest.approx(ref.residual, abs=1e-10)
        for a, b in zip(got.factors, ref.factors):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_empty_slice_tensor_parity(self):
        """A mode with a zero fiber must not break the sweep or the residual."""
        dense, _ = _sparsified_lowrank((7, 6, 5), rank=2, seed=7)
        dense[3, :, :] = 0.0
        dense[:, 0, :] = 0.0
        coo = CooTensor.from_dense(dense)
        assert 3 in coo.empty_slices(0) and 0 in coo.empty_slices(1)
        initial = init_factors(dense.shape, 2, seed=8)
        ref = cp_als(dense, ALSOptions(rank=2, n_sweeps=6, tol=0.0),
                     initial_factors=initial)
        got = cp_als(coo, ALSOptions(rank=2, n_sweeps=6, tol=0.0),
                     initial_factors=initial)
        assert got.residual == pytest.approx(ref.residual, abs=1e-10)
        assert np.isfinite(got.residual)

    def test_reported_residual_matches_exact_definition(self):
        _, coo = _sparsified_lowrank((7, 6, 5), rank=3, seed=9)
        result = cp_als(coo, ALSOptions(rank=3, n_sweeps=6, tol=0.0, seed=10))
        exact = relative_residual(coo, result.factors)
        assert result.residual == pytest.approx(exact, rel=1e-8)

    def test_recovers_fully_sampled_low_rank(self):
        from repro.data import sparse_low_rank_tensor

        # density 1.0 keeps every entry, so the tensor is exactly low-rank
        coo = sparse_low_rank_tensor((12, 11, 10), rank=2, density=1.0, seed=11)
        result = cp_als(coo, ALSOptions(rank=4, n_sweeps=60, tol=1e-12, seed=12))
        assert result.fitness > 0.95

    def test_sparse_sampling_residual_decreases_monotonically(self):
        from repro.data import sparse_low_rank_tensor

        coo = sparse_low_rank_tensor((12, 11, 10), rank=2, density=0.1, seed=11)
        result = cp_als(coo, ALSOptions(rank=4, n_sweeps=20, tol=0.0, seed=12))
        residuals = [s.residual for s in result.sweeps]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier + 1e-10

    def test_float32_sparse_end_to_end(self):
        _, coo = _sparsified_lowrank((8, 7, 6), rank=2, seed=13)
        result = cp_als(coo, ALSOptions(rank=2, n_sweeps=5, seed=14), dtype=np.float32)
        assert all(f.dtype == np.float32 for f in result.factors)
        assert np.isfinite(result.residual)


class TestPpAndMultiStart:
    def test_pairwise_operators_match_dense_build(self):
        dense, coo = _sparsified_lowrank((6, 5, 4), rank=3, seed=15)
        factors = init_factors(dense.shape, 3, seed=16)
        ref = PairwiseOperators.build(dense, factors)
        got = PairwiseOperators.build(coo, factors)
        for n in range(3):
            np.testing.assert_allclose(got.single(n), ref.single(n), atol=1e-10)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                np.testing.assert_allclose(got.pair_operator(i, j),
                                           ref.pair_operator(i, j), atol=1e-10)

    def test_pp_cp_als_matches_dense_path(self):
        dense, coo = _sparsified_lowrank((8, 7, 6), rank=2, seed=17)
        initial = init_factors(dense.shape, 2, seed=18)
        ref = pp_cp_als(dense, PPOptions(rank=2, n_sweeps=15, tol=0.0, pp_tol=0.5),
                        initial_factors=initial)
        got = pp_cp_als(coo, PPOptions(rank=2, n_sweeps=15, tol=0.0, pp_tol=0.5),
                        initial_factors=initial)
        assert [s.sweep_type for s in got.sweeps] == [s.sweep_type for s in ref.sweeps]
        assert got.residual == pytest.approx(ref.residual, abs=1e-8)

    def test_pp_phase_actually_runs_on_sparse_input(self):
        from repro.data import sparse_low_rank_tensor

        coo = sparse_low_rank_tensor((10, 9, 8), rank=2, density=0.5, seed=19)
        result = pp_cp_als(coo,
                           PPOptions(rank=2, n_sweeps=40, tol=0.0, pp_tol=0.7, seed=20))
        types = {s.sweep_type for s in result.sweeps}
        assert "pp-init" in types and "pp-approx" in types

    def test_multi_start_accepts_sparse(self):
        dense, coo = _sparsified_lowrank((7, 6, 5), rank=2, seed=21)
        ref = multi_start(dense,
                          ALSOptions(rank=2, seed=22, n_sweeps=6, tol=0.0,
                                     mttkrp="naive"),
                          n_starts=3)
        got = multi_start(coo, ALSOptions(rank=2, seed=22, n_sweeps=6, tol=0.0),
                          n_starts=3)
        assert got.best_index == ref.best_index
        np.testing.assert_allclose(got.fitnesses(), ref.fitnesses(), atol=1e-10)


class TestZeroNormGuard:
    def test_cp_als_rejects_all_zero_sparse_tensor(self):
        coo = CooTensor(np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 4, 4))
        with pytest.raises(ValueError, match="zero Frobenius norm"):
            cp_als(coo, ALSOptions(rank=2, seed=0))

    def test_pp_cp_als_rejects_all_zero_sparse_tensor(self):
        coo = CooTensor(np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 4, 4))
        with pytest.raises(ValueError, match="zero Frobenius norm"):
            pp_cp_als(coo, PPOptions(rank=2, seed=0))


class TestUnfoldingCacheBudget:
    def test_max_cache_bytes_bounds_cached_unfoldings(self):
        _, coo = _sparsified_lowrank((8, 7, 6), rank=2, seed=30)
        factors = [np.random.default_rng(31).random((s, 2)) for s in coo.shape]
        unbounded = make_provider("unfolding", coo, [f.copy() for f in factors])
        for mode in range(3):
            unbounded.mttkrp(mode)
        assert len(unbounded._unfoldings) == 3

        one_csr = unbounded._csr_bytes(unbounded._unfoldings[0])
        bounded = make_provider("unfolding", coo, [f.copy() for f in factors],
                                max_cache_bytes=one_csr + 1)
        expected = {m: unbounded.mttkrp(m) for m in range(3)}
        for _ in range(2):  # evicted unfoldings are rebuilt correctly
            for mode in range(3):
                np.testing.assert_allclose(bounded.mttkrp(mode), expected[mode],
                                           atol=1e-10)
        assert bounded._unfolding_bytes <= one_csr + 1
        assert len(bounded._unfoldings) <= 1

    def test_oversized_csr_returns_uncached(self):
        """A CSR too large for the budget is handed back uncached (not cached)."""
        _, coo = _sparsified_lowrank((8, 7, 6), rank=2, seed=32)
        factors = [np.random.default_rng(33).random((s, 2)) for s in coo.shape]
        reference = make_provider("unfolding", coo, [f.copy() for f in factors])
        expected = reference.mttkrp(0)
        one_csr = reference._csr_bytes(reference._unfoldings[0])
        kr_bytes = 7 * 6 * 2 * np.dtype(np.float64).itemsize
        # a budget that affords the Khatri-Rao workspace but not the CSR
        assert kr_bytes < one_csr, "fixture must keep the CSR the larger object"
        tiny = make_provider("unfolding", coo, [f.copy() for f in factors],
                             max_cache_bytes=one_csr - 1)
        np.testing.assert_allclose(tiny.mttkrp(0), expected, atol=1e-10)
        assert len(tiny._unfoldings) == 0

    def test_khatri_rao_over_budget_raises(self):
        """Satellite fix: the dense Khatri-Rao workspace must honor the budget.

        Previously the engine silently materialized the full
        ``(prod_{m != n} s_m) x R`` matrix no matter what ``max_cache_bytes``
        said; now the violation fails fast with the workspace size and the
        engines to use instead.
        """
        _, coo = _sparsified_lowrank((8, 7, 6), rank=2, seed=32)
        factors = [np.random.default_rng(33).random((s, 2)) for s in coo.shape]
        strict = make_provider("unfolding", coo, [f.copy() for f in factors],
                               max_cache_bytes=8)
        with pytest.raises(MemoryError, match="Khatri-Rao workspace"):
            strict.mttkrp(0)
        # an unbounded provider is unaffected
        loose = make_provider("unfolding", coo, [f.copy() for f in factors])
        loose.mttkrp(0)
