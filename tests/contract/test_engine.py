"""Tests of the shared contraction engine and the migrated kernels.

Covers plan-cache hit/miss accounting, ``out=`` buffer reuse, the absence of
any ``engine`` parameter on the public API, and parity of every migrated
kernel against a plain ``np.einsum`` oracle on random order-3/4/5 tensors.
The dense tree kernels (``first_contraction``, ``contract_intermediate_mode`` and the dense
``PairwiseOperators.first_order_mttkrp``) and the ``R x R`` algebra around them
(``gram_matrix``, ``delta_gram``, ``inner_product``, the solve, Eq. 7) are
BLAS/LAPACK calls, not einsums: they keep their parity checks here and whole
dense ``cp_als`` / ``pp_cp_als`` runs are asserted *not* to reach the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contract import (
    ContractionEngine,
    contract,
    default_engine,
    reset_default_engine,
    subscript_letters,
)
from repro.core.normal_equations import gram_matrix
from repro.core.options import ALSOptions, PPOptions
from repro.core.pp_corrections import delta_gram
from repro.tensor.mttkrp import mttkrp, partial_mttkrp
from repro.tensor.products import khatri_rao
from repro.tensor.norms import inner_product
from repro.tensor.ttm import first_contraction, ttm
from repro.tensor.ttv import contract_intermediate_mode, ttv

SHAPES = [(6, 5, 4), (5, 4, 3, 6), (4, 3, 2, 5, 3)]


def _random_problem(shape, rank=3, seed=0):
    rng = np.random.default_rng(seed)
    tensor = rng.random(shape)
    factors = [rng.random((s, rank)) for s in shape]
    return tensor, factors


def _oracle_mttkrp(tensor, factors, mode):
    letters = "abcdefgh"
    subs = letters[: tensor.ndim]
    operands = [tensor]
    spec = [subs]
    for j in range(tensor.ndim):
        if j == mode:
            continue
        operands.append(np.asarray(factors[j]))
        spec.append(subs[j] + "z")
    return np.einsum(",".join(spec) + "->" + subs[mode] + "z", *operands)


# -- engine mechanics -------------------------------------------------------


class TestPlanCache:
    def test_hit_miss_accounting(self):
        reset_default_engine()
        rng = np.random.default_rng(0)
        a, b = rng.random((7, 3)), rng.random((5, 3))

        def counts():
            info = default_engine().cache_info()
            return info["misses"], info["hits"], info["calls"]

        contract("ir,jr->ijr", a, b)
        assert counts() == (1, 0, 1)

        contract("ir,jr->ijr", a, b)
        assert counts() == (1, 1, 2)

        # a different shape under the same spec is a new plan (second miss)
        contract("ir,jr->ijr", rng.random((4, 3)), b)
        assert counts() == (2, 1, 3)
        assert default_engine().cache_info()["plans"] == 2

    def test_dtype_is_part_of_the_key(self):
        engine = ContractionEngine()
        a = np.ones((4, 3))
        engine.contract("ir,ir->r", a, a)
        engine.contract("ir,ir->r", a.astype(np.float32), a.astype(np.float32))
        assert engine.cache_info()["plans"] == 2

    def test_result_matches_plain_einsum(self):
        engine = ContractionEngine()
        tensor, factors = _random_problem((6, 5, 4), rank=3, seed=1)
        spec = "abc,ar,cr->br"
        expected = np.einsum(spec, tensor, factors[0], factors[2])
        for _ in range(2):  # second call goes through the cached plan
            got = engine.contract(spec, tensor, factors[0], factors[2])
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_out_buffer_reuse(self):
        engine = ContractionEngine()
        tensor, factors = _random_problem((5, 4, 3), rank=2, seed=2)
        spec = "abc,br,cr->ar"
        expected = np.einsum(spec, tensor, factors[1], factors[2])
        buf = np.empty((5, 2))
        got = engine.contract(spec, tensor, factors[1], factors[2], out=buf)
        assert got is buf
        np.testing.assert_allclose(buf, expected, atol=1e-12)
        # the same buffer can be filled again through the cached plan
        buf.fill(np.nan)
        engine.contract(spec, tensor, factors[1], factors[2], out=buf)
        np.testing.assert_allclose(buf, expected, atol=1e-12)

    def test_clear_drops_plans_and_stats(self):
        engine = ContractionEngine()
        a = np.ones((3, 2))
        engine.contract("ir,ir->r", a, a)
        engine.clear()
        assert engine.cache_info() == {"plans": 0, "hits": 0, "misses": 0, "calls": 0}

    def test_thread_safety_under_concurrent_contract(self):
        from concurrent.futures import ThreadPoolExecutor

        engine = ContractionEngine()
        tensor, factors = _random_problem((6, 5, 4), rank=3, seed=4)
        spec = "abc,ar,br->cr"
        expected = np.einsum(spec, tensor, factors[0], factors[1])

        def _work(_):
            return engine.contract(spec, tensor, factors[0], factors[1])

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(_work, range(32)))
        for got in results:
            np.testing.assert_allclose(got, expected, atol=1e-12)
        info = engine.cache_info()
        assert info["calls"] == 32
        assert info["hits"] + info["misses"] == 32
        assert info["plans"] == 1

    def test_subscript_letters(self):
        assert subscript_letters(3) == ["a", "b", "c"]
        assert "r" not in subscript_letters(5, exclude="r")
        with pytest.raises(ValueError):
            subscript_letters(1000)

    def test_module_level_contract_uses_default_engine(self):
        engine = reset_default_engine()
        a = np.ones((4, 2))
        contract("ir,ir->r", a, a)
        assert default_engine() is engine
        assert engine.cache_info()["calls"] == 1

    @pytest.mark.parametrize("package", ["repro", "repro.core", "repro.machine",
                                         "repro.tensor", "repro.sparse", "repro.trees"])
    def test_no_public_callable_takes_an_engine(self, package, public_parameters):
        """There is one plan cache per process: no kernel, provider or PP
        builder accepts another (every name the package or one of its modules
        exports: functions, classes and their methods)."""
        parameters = public_parameters(package)
        takers = [name for name, names in parameters.items() if "engine" in names]
        assert len({module for module, _ in parameters}) > 3
        assert takers == []

    @pytest.mark.parametrize("package", ["repro.core", "repro.trees", "repro.service",
                                         "repro.comm", "repro.distributed"])
    def test_no_public_callable_takes_a_cache_budget_or_sweep_switch(
            self, package, public_parameters):
        """Intermediate caches are bounded by invalidation alone and every run
        keeps its sweep records: no driver, provider, machine, runtime or
        service takes a byte budget or a switch for them."""
        parameters = public_parameters(package)
        removed = {"max_cache_bytes", "max_bytes", "record_sweeps"}
        takers = [name for name, names in parameters.items() if names & removed]
        assert len({module for module, _ in parameters}) > 1
        assert takers == []


# -- repeated kernel calls hit the plan cache -------------------------------


class TestKernelPlanReuse:
    def test_repeated_mttkrp_hits_cache(self):
        reset_default_engine()
        tensor, factors = _random_problem((6, 5, 4), rank=3, seed=5)
        mttkrp(tensor, factors, 0)
        mttkrp(tensor, factors, 0)
        assert default_engine().cache_info()["hits"] >= 1

    def test_every_migrated_kernel_hits_on_second_call(self):
        tensor, factors = _random_problem((5, 4, 3), rank=3, seed=6)
        kernels = {
            "mttkrp": lambda: mttkrp(tensor, factors, 1),
            "partial_mttkrp": lambda: partial_mttkrp(tensor, factors, [0, 2]),
            "ttv": lambda: ttv(tensor, factors[1][:, 0], 1),
            "ttm": lambda: ttm(tensor, factors[0].T, 0),
        }
        for name, kernel in kernels.items():
            reset_default_engine()
            kernel()
            kernel()
            info = default_engine().cache_info()
            assert info["hits"] >= 1, f"no plan-cache hit for {name}"

    def test_khatri_rao_is_a_broadcast_not_an_einsum(self):
        _, factors = _random_problem((5, 4, 3), rank=3, seed=7)
        engine = reset_default_engine()
        got = khatri_rao(factors)
        assert engine.cache_info()["calls"] == 0
        assert got.flags.c_contiguous
        # the pairwise einsum it replaces: one multiply per element either way
        pair = np.einsum("ir,jr->ijr", factors[0], factors[1]).reshape(-1, 3)
        assert np.array_equal(got, np.einsum("ir,jr->ijr", pair, factors[2]).reshape(-1, 3))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense-naive", "sparse-dt"])
    def test_provider_sweep_reuses_plans_across_sweeps(self, sparse):
        from repro.sparse import CooTensor
        from repro.trees.registry import make_provider

        engine = reset_default_engine()
        tensor, factors = _random_problem((6, 5, 4), rank=3, seed=8)
        data = CooTensor.from_dense(tensor) if sparse else tensor
        provider = make_provider("dt" if sparse else "naive", data, factors)
        for _ in range(3):
            for mode in range(3):
                result = provider.mttkrp(mode)
                # updating the factor invalidates the intermediate cache, so
                # later sweeps re-contract — through cached plans
                provider.set_factor(mode, result / (np.linalg.norm(result) + 1.0))
        info = engine.cache_info()
        assert info["hits"] >= 1
        assert info["misses"] >= 1
        # a fresh provider on the same shapes (the next start of a
        # multi-start) replays the plans the first one searched
        fresh = make_provider("dt" if sparse else "naive", data, factors)
        for mode in range(3):
            fresh.mttkrp(mode)
        assert engine.cache_info()["misses"] == info["misses"]

    def test_dense_tree_kernels_never_reach_the_engine(self):
        """The dense ``dt``/``msdt`` sweeps, the dense PP operator build and
        the dense first-order correction are BLAS calls on views: the
        process-wide engine sees not a single contraction.  Nor do
        whole dense driver runs, whose Gram matrices, solves, Eq. (7) and
        residuals are plain BLAS/LAPACK: exact sweeps, ``pp-init`` and
        approximated sweeps included."""
        from repro.core.cp_als import cp_als
        from repro.core.pp_cp_als import pp_cp_als
        from repro.tensor.cp_format import random_cp_tensor
        from repro.trees.pp_operators import PairwiseOperators
        from repro.trees.registry import make_provider

        tensor, factors = _random_problem((6, 5, 4, 3), rank=3, seed=8)
        default = reset_default_engine()
        for name in ("dt", "msdt"):
            provider = make_provider(name, tensor, [f.copy() for f in factors])
            for mode in range(tensor.ndim):
                got = provider.mttkrp(mode)
                np.testing.assert_allclose(
                    got, _oracle_mttkrp(tensor, provider.factors, mode), atol=1e-10)
                provider.set_factor(mode, got / (np.linalg.norm(got) + 1.0))
            operators = PairwiseOperators.build(tensor, provider.factors,
                                                provider=provider)
            operators.first_order_mttkrp(2, factors)
        # (an order-4 array whose last extent is the rank is an intermediate)
        first_contraction(tensor, factors[1], 1)
        contract_intermediate_mode(tensor, factors[1], 1)
        assert default.cache_info()["calls"] == 0

        lowrank = random_cp_tensor((7, 6, 8, 5), rank=3, seed=11).full()
        for name in ("dt", "msdt"):
            exact = cp_als(lowrank, ALSOptions(rank=3, n_sweeps=4, mttkrp=name, seed=0))
            assert np.isfinite(exact.residual)
            perturbed = pp_cp_als(lowrank,
                                  PPOptions(rank=3, n_sweeps=30, tol=1e-12, pp_tol=0.3,
                                            mttkrp=name, seed=0))
            types = {record.sweep_type for record in perturbed.sweeps}
            assert types == {"als", "pp-init", "pp-approx"}
        assert default.cache_info()["calls"] == 0


# -- migrated kernels vs the np.einsum oracle -------------------------------


class TestKernelParity:
    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4", "order5"])
    def test_mttkrp_matches_oracle(self, shape):
        tensor, factors = _random_problem(shape, rank=3, seed=10)
        for mode in range(len(shape)):
            got = mttkrp(tensor, factors, mode)
            np.testing.assert_allclose(got, _oracle_mttkrp(tensor, factors, mode),
                                       atol=1e-10)

    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4", "order5"])
    def test_partial_mttkrp_matches_oracle(self, shape):
        tensor, factors = _random_problem(shape, rank=3, seed=11)
        order = len(shape)
        keep = [0, order - 1]
        got = partial_mttkrp(tensor, factors, keep)
        letters = "abcdefgh"
        subs = letters[:order]
        operands = [tensor]
        spec = [subs]
        for j in range(order):
            if j in keep:
                continue
            operands.append(factors[j])
            spec.append(subs[j] + "z")
        expected = np.einsum(
            ",".join(spec) + "->" + "".join(subs[m] for m in keep) + "z", *operands
        )
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4", "order5"])
    def test_ttv_matches_tensordot(self, shape):
        tensor, _ = _random_problem(shape, seed=12)
        rng = np.random.default_rng(13)
        for mode in range(len(shape)):
            vector = rng.random(shape[mode])
            got = ttv(tensor, vector, mode)
            np.testing.assert_allclose(
                got, np.tensordot(tensor, vector, axes=(mode, 0)), atol=1e-10
            )

    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4", "order5"])
    def test_ttm_matches_tensordot(self, shape):
        tensor, _ = _random_problem(shape, seed=14)
        rng = np.random.default_rng(15)
        for mode in range(len(shape)):
            matrix = rng.random((7, shape[mode]))
            got = ttm(tensor, matrix, mode)
            expected = np.moveaxis(
                np.tensordot(matrix, tensor, axes=(1, mode)), 0, mode
            )
            np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4", "order5"])
    def test_first_contraction_matches_tensordot(self, shape):
        tensor, factors = _random_problem(shape, rank=4, seed=16)
        for mode in range(len(shape)):
            got = first_contraction(tensor, factors[mode], mode)
            np.testing.assert_allclose(
                got, np.tensordot(tensor, factors[mode], axes=(mode, 0)), atol=1e-10
            )

    @pytest.mark.parametrize("shape", SHAPES, ids=["order3", "order4", "order5"])
    def test_contract_intermediate_mode_matches_einsum(self, shape):
        rng = np.random.default_rng(17)
        rank = 3
        intermediate = rng.random(shape + (rank,))
        for axis in range(len(shape)):
            factor = rng.random((shape[axis], rank))
            got = contract_intermediate_mode(intermediate, factor, axis)
            moved = np.moveaxis(intermediate, axis, -2)
            expected = np.einsum("...yr,yr->...r", moved, factor)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_gram_and_inner_product_match_blas(self):
        rng = np.random.default_rng(18)
        a = rng.random((30, 5))
        b = rng.random((30, 5))
        np.testing.assert_allclose(gram_matrix(a), a.T @ a, atol=1e-10)
        np.testing.assert_allclose(delta_gram(a, b), a.T @ b, atol=1e-10)
        assert inner_product(a, b) == pytest.approx(float(np.dot(a.ravel(), b.ravel())))

    def test_first_order_mttkrp_matches_einsum(self):
        from repro.trees.pp_operators import PairwiseOperators

        tensor, factors = _random_problem((6, 5, 4), rank=4, seed=19)
        rng = np.random.default_rng(19)
        deltas = [rng.random(f.shape) for f in factors]
        operators = PairwiseOperators.build(tensor, factors)
        for mode in range(3):
            # M_p^(mode) + sum_i U^(mode,i), U^(mode,i) the MTTKRP with dA^(i) for A^(i)
            expected = _oracle_mttkrp(tensor, factors, mode)
            for other in set(range(3)) - {mode}:
                stepped = [deltas[k] if k == other else factors[k] for k in range(3)]
                expected = expected + _oracle_mttkrp(tensor, stepped, mode)
            np.testing.assert_allclose(operators.first_order_mttkrp(mode, deltas),
                                       expected, atol=1e-10)

    def test_mttkrp_out_buffer(self):
        tensor, factors = _random_problem((6, 5, 4), rank=3, seed=20)
        buf = np.empty((6, 3))
        got = mttkrp(tensor, factors, 0, out=buf)
        assert got is buf
        np.testing.assert_allclose(buf, _oracle_mttkrp(tensor, factors, 0), atol=1e-10)
