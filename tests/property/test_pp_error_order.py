"""The paper's error statement for pairwise perturbation, as a property.

Eq. (5) keeps the terms of the MTTKRP that are of order zero and one in the
steps ``dA^(i)`` away from the checkpoint exactly, so what
:meth:`repro.trees.pp_operators.PairwiseOperators.first_order_mttkrp` returns
differs from the exact MTTKRP at ``A_p + dA`` by terms of second order and up:
halving every step must cut the error about four times, and no step at all
must give back ``M_p^(n)`` itself.  Checked on dense and on semi-sparse
operators, orders 3 to 5.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sparse import CooTensor
from repro.tensor.mttkrp import mttkrp
from repro.trees.pp_operators import PairwiseOperators

pytestmark = pytest.mark.property


def _draw(data):
    order = data.draw(st.integers(3, 5), label="order")
    shape = tuple(data.draw(st.integers(2, 5), label=f"dim{i}") for i in range(order))
    rank = data.draw(st.integers(1, 3), label="rank")
    sparse = data.draw(st.booleans(), label="semi-sparse")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    tensor = rng.random(shape)
    if sparse:
        tensor = tensor * (rng.random(shape) < 0.5)
        tensor[(0,) * order] = 1.0  # never empty
    checkpoint = [rng.random((s, rank)) + 0.5 for s in shape]
    directions = [rng.standard_normal((s, rank)) for s in shape]
    operators = PairwiseOperators.build(
        CooTensor.from_dense(tensor) if sparse else tensor, checkpoint)
    return tensor, checkpoint, directions, operators


def _relative_error(tensor, checkpoint, directions, operators, mode, step):
    deltas = [step * d for d in directions]
    exact = mttkrp(tensor, [c + d for c, d in zip(checkpoint, deltas)], mode)
    approx = operators.first_order_mttkrp(mode, deltas)
    return float(np.linalg.norm(exact - approx) / np.linalg.norm(exact))


@given(data=st.data())
def test_halving_the_step_cuts_the_error_at_least_3_5_times(data):
    tensor, checkpoint, directions, operators = _draw(data)
    mode = data.draw(st.integers(0, tensor.ndim - 1), label="mode")
    # small against the checkpoint entries (>= 0.5), so the third-order terms
    # are a few per cent of the second-order ones
    step = 2e-3
    coarse = _relative_error(tensor, checkpoint, directions, operators, mode, step)
    fine = _relative_error(tensor, checkpoint, directions, operators, mode, step / 2)
    if coarse < 1e-11:
        return  # the second-order terms vanish for this draw (e.g. extent-1 modes)
    assert fine * 3.5 <= coarse, (coarse, fine)


@given(data=st.data())
def test_no_step_gives_the_checkpoint_mttkrp_exactly(data):
    tensor, checkpoint, _, operators = _draw(data)
    zeros = [np.zeros_like(c) for c in checkpoint]
    for mode in range(tensor.ndim):
        assert np.array_equal(operators.first_order_mttkrp(mode, zeros),
                              operators.single(mode))
        np.testing.assert_allclose(operators.single(mode),
                                   mttkrp(tensor, checkpoint, mode),
                                   rtol=1e-10, atol=1e-10)
