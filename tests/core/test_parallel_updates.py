"""Parallel nonnegative CP: update rules on the distributed driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nn_cp_als import nn_cp_als
from repro.core.options import ParallelOptions
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.sparse.coo import CooTensor
from repro.tensor.cp_format import random_cp_tensor
from repro.core.options import NNOptions, ParallelPPOptions

RANK = 3
SHAPE = (8, 8, 6)
GRID = (2, 2, 1)


@pytest.fixture(scope="module")
def tensor():
    return np.abs(random_cp_tensor(SHAPE, rank=RANK, seed=42).full())


@pytest.fixture(scope="module")
def initial():
    rng = np.random.default_rng(5)
    return [rng.random((s, RANK)) for s in SHAPE]


@pytest.mark.parametrize("update", ["hals", "multiplicative"])
def test_parallel_matches_sequential_nn(tensor, initial, update):
    """Row-separable rules: the distributed run reproduces the sequential
    iterates (exact simulated collectives)."""
    sequential = nn_cp_als(tensor,
                           NNOptions(rank=RANK, n_sweeps=5, tol=0.0, update=update),
                           initial_factors=initial)
    parallel = parallel_cp_als(tensor,
                               ParallelOptions(rank=RANK, grid=GRID, n_sweeps=5,
                                               tol=0.0, update=update),
                               initial_factors=initial)
    for a, b in zip(sequential.factors, parallel.factors):
        np.testing.assert_allclose(a, b, atol=1e-12)
    assert parallel.options["update"] == update


@pytest.mark.parametrize("update", ["hals", "multiplicative"])
def test_parallel_nn_factors_nonnegative(tensor, update):
    result = parallel_cp_als(tensor,
                             ParallelOptions(rank=RANK, grid=GRID, n_sweeps=4, tol=0.0,
                                             seed=0, update=update))
    assert all((f >= 0).all() for f in result.factors)


def test_sparse_parallel_nn_matches_sequential(tensor, initial):
    sparse = CooTensor.from_dense(tensor)
    sequential = nn_cp_als(sparse,
                           NNOptions(rank=RANK, n_sweeps=4, tol=0.0, update="hals"),
                           initial_factors=initial)
    parallel = parallel_cp_als(sparse,
                               ParallelOptions(rank=RANK, grid=GRID, n_sweeps=4,
                                               tol=0.0, update="hals"),
                               initial_factors=initial)
    for a, b in zip(sequential.factors, parallel.factors):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_default_rule_is_bit_identical_to_legacy_path(tensor, initial):
    """update='least_squares' must reproduce the pre-refactor driver exactly
    (same distributed-solve code path, same flop accounting)."""
    explicit = parallel_cp_als(tensor,
                               ParallelOptions(rank=RANK, grid=GRID, n_sweeps=3,
                                               tol=0.0, update="least_squares"),
                               initial_factors=initial)
    default = parallel_cp_als(tensor,
                              ParallelOptions(rank=RANK, grid=GRID, n_sweeps=3, tol=0.0),
                              initial_factors=initial)
    for a, b in zip(explicit.factors, default.factors):
        np.testing.assert_array_equal(a, b)
    assert (explicit.critical_path.flops_by_category
            == default.critical_path.flops_by_category)


def test_parallel_options_carries_update():
    opts = ParallelOptions(rank=RANK, grid=GRID, update="multiplicative")
    assert opts.update == "multiplicative"
    with pytest.raises(ValueError, match="update"):
        ParallelOptions(rank=RANK, grid=GRID, update="masked_least_squares")


def test_parallel_pp_rejects_non_least_squares(tensor):
    with pytest.raises(NotImplementedError, match="least_squares"):
        parallel_pp_cp_als(tensor,
                           ParallelPPOptions(rank=RANK, grid=GRID, update="hals"))
