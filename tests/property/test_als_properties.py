"""Property-based tests on CP-ALS invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cp_als import cp_als
from repro.core.normal_equations import solve_normal_equations
from repro.core.options import ALSOptions
from repro.tensor.cp_format import random_cp_tensor

pytestmark = pytest.mark.property


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_als_residual_never_increases(data):
    """Every ALS sweep is an exact block-coordinate minimization, so the
    residual is non-increasing regardless of tensor, rank or engine."""
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    order = data.draw(st.integers(3, 4))
    shape = tuple(data.draw(st.integers(3, 6)) for _ in range(order))
    tensor = rng.random(shape)
    rank = data.draw(st.integers(1, 3))
    engine = data.draw(st.sampled_from(["dt", "msdt"]))
    result = cp_als(tensor,
                    ALSOptions(rank=rank, n_sweeps=6, tol=0.0, mttkrp=engine, seed=seed))
    residuals = [s.residual for s in result.sweeps]
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-9


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_als_engines_agree_for_any_problem(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    order = data.draw(st.integers(3, 4))
    shape = tuple(data.draw(st.integers(3, 5)) for _ in range(order))
    tensor = rng.random(shape)
    rank = data.draw(st.integers(1, 3))
    initial = [rng.random((s, rank)) for s in shape]
    dt = cp_als(tensor, ALSOptions(rank=rank, n_sweeps=3, tol=0.0, mttkrp="dt"),
                initial_factors=initial)
    msdt = cp_als(tensor, ALSOptions(rank=rank, n_sweeps=3, tol=0.0, mttkrp="msdt"),
                  initial_factors=initial)
    for a, b in zip(dt.factors, msdt.factors):
        assert np.allclose(a, b, atol=1e-7)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_exact_cp_tensor_is_fixed_point_of_sweep(data):
    """Starting from the exact factors of a CP tensor, one sweep must not move."""
    seed = data.draw(st.integers(0, 2**31 - 1))
    order = data.draw(st.integers(3, 4))
    shape = tuple(data.draw(st.integers(4, 6)) for _ in range(order))
    rank = data.draw(st.integers(1, 2))
    cp = random_cp_tensor(shape, rank, seed=seed, distribution="normal")
    tensor = cp.full()
    result = cp_als(tensor, ALSOptions(rank=rank, n_sweeps=2, tol=0.0, mttkrp="dt"),
                    initial_factors=cp.factors)
    assert result.residual < 1e-6


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_equation_solve_satisfies_equations_for_spd_gamma(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, 5))
    rows = data.draw(st.integers(1, 8))
    base = rng.standard_normal((rank + 2, rank))
    gamma = base.T @ base + 0.1 * np.eye(rank)   # SPD by construction
    rhs = rng.standard_normal((rows, rank))
    solution = solve_normal_equations(gamma, rhs)
    assert np.allclose(solution @ gamma, rhs, atol=1e-6)
