"""Tests of the nonnegative CP driver (HALS / multiplicative updates)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nn_cp_als import nn_cp_als
from repro.core.options import NNOptions
from repro.sparse.coo import CooTensor
from repro.tensor.cp_format import random_cp_tensor

RANK = 3


@pytest.fixture(scope="module")
def tensor():
    # nonnegative ground truth so both update rules apply
    return np.abs(random_cp_tensor((8, 7, 6), rank=RANK, seed=42).full())


@pytest.mark.parametrize("update", ["hals", "multiplicative"])
@pytest.mark.parametrize("engine", ["dt", "msdt"])
def test_factors_are_nonnegative(tensor, update, engine):
    result = nn_cp_als(tensor,
                       NNOptions(rank=RANK, n_sweeps=8, tol=0.0, mttkrp=engine,
                                 update=update, seed=0))
    assert all((f >= 0).all() for f in result.factors)
    assert result.options["update"] == update


@pytest.mark.parametrize("update", ["hals", "multiplicative"])
def test_residual_is_monotone_nonincreasing(tensor, update):
    result = nn_cp_als(tensor,
                       NNOptions(rank=RANK, n_sweeps=10, tol=0.0, update=update, seed=3))
    residuals = [s.residual for s in result.sweeps]
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-9


def test_sparse_backend_matches_dense(tensor):
    sparse = CooTensor.from_dense(tensor)
    rng = np.random.default_rng(5)
    initial = [rng.random((s, RANK)) for s in tensor.shape]
    dense_result = nn_cp_als(tensor, NNOptions(rank=RANK, n_sweeps=5, tol=0.0),
                             initial_factors=initial)
    sparse_result = nn_cp_als(sparse, NNOptions(rank=RANK, n_sweeps=5, tol=0.0),
                              initial_factors=initial)
    for a, b in zip(dense_result.factors, sparse_result.factors):
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_fit_recovers_nonnegative_ground_truth(tensor):
    result = nn_cp_als(tensor, NNOptions(rank=RANK, n_sweeps=60, tol=1e-10, seed=1))
    assert result.fitness > 0.95


def test_multiplicative_rejects_negative_tensor():
    rng = np.random.default_rng(0)
    signed = rng.standard_normal((5, 4, 3))
    with pytest.raises(ValueError, match="nonnegative tensor"):
        nn_cp_als(signed, NNOptions(rank=2, update="multiplicative"))


def test_hals_accepts_negative_tensor():
    rng = np.random.default_rng(0)
    signed = rng.standard_normal((5, 4, 3))
    result = nn_cp_als(signed, NNOptions(rank=2, n_sweeps=4, update="hals", seed=0))
    assert all((f >= 0).all() for f in result.factors)


def test_negative_initial_factors_rejected(tensor):
    rng = np.random.default_rng(1)
    initial = [rng.standard_normal((s, RANK)) for s in tensor.shape]
    with pytest.raises(ValueError, match="negative entries"):
        nn_cp_als(tensor, NNOptions(rank=RANK), initial_factors=initial)


def test_options_bundle_matches_keywords(tensor):
    bundled = nn_cp_als(
        tensor, options=NNOptions(rank=RANK, n_sweeps=6, tol=0.0,
                                  update="hals", seed=9))
    spelled = nn_cp_als(tensor,
                        NNOptions(rank=RANK, n_sweeps=6, tol=0.0, update="hals", seed=9))
    for a, b in zip(bundled.factors, spelled.factors):
        np.testing.assert_array_equal(a, b)


def test_nn_options_rejects_unknown_update():
    with pytest.raises(ValueError, match="update"):
        NNOptions(rank=2, update="projected_newton")


def test_callback_sees_every_sweep(tensor):
    seen: list[int] = []
    nn_cp_als(tensor, NNOptions(rank=RANK, n_sweeps=4, tol=0.0, seed=0),
              callback=lambda k, factors, fitness: seen.append(k))
    assert seen == [0, 1, 2, 3]
