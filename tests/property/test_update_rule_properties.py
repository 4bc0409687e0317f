"""Property-based tests of the nonnegative and masked update rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cp_als import cp_als
from repro.core.masked_cp_als import masked_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.options import ALSOptions, MaskedOptions, NNOptions
from repro.sparse.coo import CooTensor
from repro.tensor.cp_format import CPTensor

pytestmark = pytest.mark.property


def _random_problem(data, max_order=4, max_dim=6):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    order = data.draw(st.integers(3, max_order))
    shape = tuple(data.draw(st.integers(3, max_dim)) for _ in range(order))
    rank = data.draw(st.integers(1, 3))
    return rng, shape, rank, seed


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_nn_factors_nonnegative_and_residual_monotone(data):
    """For any tensor, rank, engine, backend and update rule, nn_cp_als
    keeps every factor elementwise nonnegative and never increases the
    residual (HALS and multiplicative are descent methods)."""
    rng, shape, rank, seed = _random_problem(data)
    tensor = rng.random(shape)  # nonnegative: valid for both rules
    if data.draw(st.booleans()):
        tensor = CooTensor.from_dense(np.where(rng.random(shape) < 0.5, tensor, 0.0))
    engine = data.draw(st.sampled_from(["dt", "msdt"]))
    update = data.draw(st.sampled_from(["hals", "multiplicative"]))
    result = nn_cp_als(tensor,
                       NNOptions(rank=rank, n_sweeps=5, tol=0.0, mttkrp=engine,
                                 update=update, seed=seed))
    assert all((f >= 0).all() for f in result.factors)
    residuals = [s.residual for s in result.sweeps]
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-9


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_masked_matches_dense_zero_fill_oracle(data):
    """masked_cp_als equals the literal EM iteration: zero-fill the dense
    tensor, then per sweep fill unobserved entries with the previous model
    and take one exact ALS sweep."""
    rng, shape, rank, _ = _random_problem(data, max_order=3, max_dim=5)
    tensor = rng.standard_normal(shape)
    mask = rng.random(shape) < data.draw(st.floats(0.3, 0.9))
    if not mask.any():
        mask[tuple(0 for _ in shape)] = True
    n_sweeps = data.draw(st.integers(1, 4))
    initial = [rng.random((s, rank)) for s in shape]

    result = masked_cp_als(tensor, MaskedOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0),
                           mask=mask, initial_factors=initial)

    factors = [f.copy() for f in initial]
    for _ in range(n_sweeps):
        filled = np.where(mask, tensor, CPTensor(list(factors)).full())
        factors = cp_als(filled, ALSOptions(rank=rank, n_sweeps=1, tol=0.0),
                         initial_factors=factors).factors

    for a, b in zip(result.factors, factors):
        np.testing.assert_allclose(a, b, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_masked_dense_and_sparse_backends_agree(data):
    """The observed entries are all either backend ever reads, so the dense
    and sparse masked runs produce the same iterates."""
    rng, shape, rank, _ = _random_problem(data, max_order=3, max_dim=5)
    tensor = rng.random(shape) + 0.1  # strictly positive: no dropped zeros
    mask = rng.random(shape) < 0.6
    if not mask.any():
        mask[tuple(0 for _ in shape)] = True
    initial = [rng.random((s, rank)) for s in shape]
    dense = masked_cp_als(tensor, MaskedOptions(rank=rank, n_sweeps=3, tol=0.0),
                          mask=mask, initial_factors=initial)
    sparse = masked_cp_als(CooTensor.from_dense(np.where(mask, tensor, 0.0)),
                           MaskedOptions(rank=rank, n_sweeps=3, tol=0.0), mask=mask,
                           initial_factors=initial)
    for a, b in zip(dense.factors, sparse.factors):
        np.testing.assert_allclose(a, b, atol=1e-9)
