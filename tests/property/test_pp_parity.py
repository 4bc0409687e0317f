"""Hypothesis parity sweep for the pairwise-perturbation operators (ISSUE 5).

The sparse PP operators are built as semi-sparse descents over the CSF fiber
cache (:mod:`repro.trees.sparse_pp`) — a completely different code path from
the dense ``PairwiseOperators`` builder (einsum descents over dense
intermediates).  Two suites keep them honest:

* every pair/single operator built on the sparse backend — standalone and
  sharing the cache of each registered sparse engine, after an arbitrary
  prefix of ALS-style factor updates — matches the dense oracle to ``1e-10``
  across orders 3-5, ranks and densities;
* full ``pp_cp_als`` runs agree across backends sweep-for-sweep, and their
  final fitness agrees with exact ``cp_als`` within the PP approximation
  tolerance on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cp_als import cp_als
from repro.core.options import ALSOptions, PPOptions
from repro.core.pp_cp_als import pp_cp_als
from repro.sparse import CooTensor
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import available_providers, make_provider
from repro.trees.sparse_pp import SemiSparsePairOperator

pytestmark = pytest.mark.property

SPARSE_ENGINES = tuple(available_providers())


def _assert_close(got, expected, label):
    scale = max(1.0, float(np.abs(expected).max()))
    err = float(np.abs(np.asarray(got) - expected).max())
    assert err <= 1e-10 * scale, f"{label}: max|diff|={err:.3e} (scale {scale:.3e})"


def _draw_instance(data, min_dim=2, densities=(0.05, 0.2, 0.5, 1.0), max_rank=3):
    order = data.draw(st.integers(3, 5), label="order")
    shape = tuple(
        data.draw(st.integers(min_dim, 5), label=f"dim{i}") for i in range(order)
    )
    rank = data.draw(st.integers(1, min(max_rank, min(shape))), label="rank")
    density = data.draw(st.sampled_from(densities), label="density")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    dense = rng.random(shape) * (rng.random(shape) < density)
    if not dense.any():
        idx = tuple(rng.integers(0, s) for s in shape)
        dense[idx] = 1.0
    coo = CooTensor.from_dense(dense)
    factors = [rng.random((s, rank)) for s in shape]
    return dense, coo, factors, rng


@settings(deadline=None)
@given(data=st.data(), engine_name=st.sampled_from(SPARSE_ENGINES))
def test_sparse_pp_operators_match_dense_oracle(data, engine_name):
    """Semi-sparse PP operators equal the dense ``PairwiseOperators`` oracle,
    with and without sharing each sparse engine's provider cache, at any point
    of a random factor-update sequence."""
    dense, coo, factors, rng = _draw_instance(data)
    order = dense.ndim
    provider = make_provider(engine_name, coo, [f.copy() for f in factors])
    # a random ALS-style prefix: some MTTKRP requests (which populate a tree
    # provider's cache) interleaved with factor updates
    for _ in range(data.draw(st.integers(0, 4), label="prefix")):
        provider.mttkrp(data.draw(st.integers(0, order - 1), label="m"))
        if data.draw(st.booleans(), label="update?"):
            mode = data.draw(st.integers(0, order - 1), label="update_mode")
            factors[mode] = rng.random(factors[mode].shape)
            provider.set_factor(mode, factors[mode])

    oracle = PairwiseOperators.build(dense, [f.copy() for f in factors])
    shared = PairwiseOperators.build(coo, provider.factors, provider=provider)
    standalone = PairwiseOperators.build(coo, [f.copy() for f in factors])

    for ops, label in ((shared, f"shared:{engine_name}"), (standalone, "standalone")):
        for (i, j), op in oracle.pairs().items():
            _assert_close(np.asarray(ops.pairs()[i, j]), np.asarray(op),
                          f"{label} pair ({i}, {j})")
        for n in range(order):
            _assert_close(ops.single(n), oracle.single(n), f"{label} single {n}")
        # the sparse container must actually hold semi-sparse operators (the
        # parity above would also pass for densified ones)
        assert all(isinstance(op, SemiSparsePairOperator)
                   for op in ops.pairs().values()), label


@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_pp_cp_als_matches_cp_als_fitness_on_both_backends(data):
    """``pp_cp_als`` produces the same run on the dense and sparse backend,
    and its final fitness agrees with exact ``cp_als`` within the PP
    approximation tolerance on both."""
    dense, coo, factors, _ = _draw_instance(
        data, min_dim=3, densities=(0.3, 0.6, 1.0), max_rank=3
    )
    rank = factors[0].shape[1]
    pp_options = PPOptions(rank=rank, n_sweeps=20, tol=0.0, pp_tol=0.3)
    pp_dense = pp_cp_als(dense, pp_options, initial_factors=[f.copy() for f in factors])
    pp_sparse = pp_cp_als(coo, pp_options, initial_factors=[f.copy() for f in factors])

    # same algorithm, different backend: sweep types and iterates must agree
    assert [s.sweep_type for s in pp_dense.sweeps] == \
        [s.sweep_type for s in pp_sparse.sweeps]
    assert abs(pp_dense.fitness - pp_sparse.fitness) <= 1e-8
    for a, b in zip(pp_dense.factors, pp_sparse.factors):
        _assert_close(b, a, "pp factors dense vs sparse")

    exact_dense = cp_als(dense,
                         ALSOptions(rank=rank, n_sweeps=20, tol=0.0, mttkrp="msdt"),
                         initial_factors=[f.copy() for f in factors])
    exact_sparse = cp_als(coo,
                          ALSOptions(rank=rank, n_sweeps=20, tol=0.0, mttkrp="msdt"),
                          initial_factors=[f.copy() for f in factors])
    # on small random instances a PP-approximated step can steer the run into
    # a different local basin than exact ALS, so the fitness bound is loose by
    # construction (empirically the gap stays below ~0.06); the *tight*
    # regression assertions are the cross-backend ones above
    assert pp_dense.fitness >= exact_dense.fitness - 0.1
    assert pp_sparse.fitness >= exact_sparse.fitness - 0.1
