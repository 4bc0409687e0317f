"""Hypothesis parity sweep across the full engine/backend matrix (ISSUE 3).

Every registered MTTKRP engine — ``naive`` / ``unfolding`` / ``dt`` / ``msdt``
on the dense backend, plus ``sparse`` / ``unfolding`` / ``naive`` / ``dt`` /
``msdt`` on the COO backend — must produce the same MTTKRPs (against the einsum
oracle) and the same CP-ALS iterates, for random shapes, orders (3-5), ranks
and densities, under arbitrary factor-update sequences.  This is what keeps
the engine/backend matrix honest: the implementations share no kernel code
across backends (einsum contractions vs CSF fiber reductions vs CSR
matricization), so agreement to 1e-10 is strong evidence of correctness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cp_als import cp_als
from repro.core.options import ALSOptions
from repro.sparse import CooTensor
from repro.trees.registry import make_provider

pytestmark = pytest.mark.property

ENGINES = ("naive", "unfolding", "dt", "msdt")

_LETTERS = "abcdefgh"


def _oracle_mttkrp(dense, factors, mode):
    subs = _LETTERS[: dense.ndim]
    operands, spec = [dense], [subs]
    for j in range(dense.ndim):
        if j == mode:
            continue
        operands.append(factors[j])
        spec.append(subs[j] + "z")
    return np.einsum(",".join(spec) + "->" + subs[mode] + "z", *operands)


def _draw_instance(data, min_dim=2, densities=(0.05, 0.2, 0.5, 1.0), max_rank=3):
    """A random sparse-able tensor plus factor matrices.

    The MTTKRP test uses the full range, degenerate shapes included (the
    kernels must agree on anything).  The ALS test restricts to well-posed
    instances (``min_dim=3``, denser tensors, ``rank <= min_dim``): a nearly
    empty tensor makes the normal equations singular, and the pseudo-inverse
    fallback then amplifies backend rounding differences past any fixed
    tolerance — a property of the problem, not of the engines.
    """
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
        dense[idx] = 1.0  # keep the tensor (and cp_als' norm guard) nonzero
    coo = CooTensor.from_dense(dense)
    factors = [rng.random((s, rank)) for s in shape]
    return dense, coo, factors, rng


def _assert_close(got, expected, label):
    scale = max(1.0, float(np.abs(expected).max()))
    err = float(np.abs(np.asarray(got) - expected).max())
    assert err <= 1e-10 * scale, f"{label}: max|diff|={err:.3e} (scale {scale:.3e})"


@settings(deadline=None)
@given(data=st.data())
def test_all_engines_agree_on_mttkrp(data):
    """All 8 engine/backend combinations match the einsum oracle through a
    random interleaving of MTTKRP requests and factor updates."""
    dense, coo, factors, rng = _draw_instance(data)
    order = dense.ndim
    providers = {
        f"dense:{name}": make_provider(name, dense, [f.copy() for f in factors])
        for name in ENGINES
    }
    providers.update({
        f"sparse:{name}": make_provider(name, coo, [f.copy() for f in factors])
        for name in ENGINES
    })

    n_steps = data.draw(st.integers(3, 8), label="steps")
    for _ in range(n_steps):
        mode = data.draw(st.integers(0, order - 1), label="mode")
        expected = _oracle_mttkrp(dense, factors, mode)
        for label, provider in providers.items():
            _assert_close(provider.mttkrp(mode), expected, label)
        if data.draw(st.booleans(), label="update?"):
            update_mode = data.draw(st.integers(0, order - 1), label="update_mode")
            new = rng.random(factors[update_mode].shape)
            factors[update_mode] = new
            for provider in providers.values():
                provider.set_factor(update_mode, new)


@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_all_engines_agree_on_cp_als_sweeps(data):
    """Full CP-ALS runs (2 sweeps, shared init) produce the same iterates on
    every engine and backend: same factors, same residual trajectory."""
    dense, coo, factors, _ = _draw_instance(
        data, min_dim=3, densities=(0.3, 0.6, 1.0), max_rank=3
    )
    runs = {}
    for name in ENGINES:
        runs[f"dense:{name}"] = cp_als(dense,
                                       ALSOptions(rank=factors[0].shape[1], n_sweeps=2,
                                                  tol=0.0, mttkrp=name),
                                       initial_factors=[f.copy() for f in factors])
    for name in ENGINES:
        runs[f"sparse:{name}"] = cp_als(coo,
                                        ALSOptions(rank=factors[0].shape[1], n_sweeps=2,
                                                   tol=0.0, mttkrp=name),
                                        initial_factors=[f.copy() for f in factors])
    reference = runs["dense:naive"]
    for label, result in runs.items():
        assert result.n_sweeps == reference.n_sweeps
        _assert_close(result.residual, np.asarray(reference.residual),
                      f"{label} residual")
        for mode, factor in enumerate(result.factors):
            _assert_close(factor, reference.factors[mode],
                          f"{label} factor {mode}")
