"""Property tests: the dense tree kernels against an ``np.einsum`` oracle.

:func:`repro.tensor.ttm.first_contraction`,
:func:`repro.tensor.ttm.trailing_contraction` and
:func:`repro.tensor.ttv.contract_intermediate_mode` are batched BLAS calls on
views; the einsum spelling they replaced lives here, under ``tests/``, as the
oracle.  Every mode and axis, orders 1-5, non-cubic shapes with extent-1
modes, rank 1, float32 in -> float32 out, and inputs that are F-ordered,
sliced or transposed; the output is always in the one layout
:mod:`repro.tensor.intermediate` declares.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.tensor.ttm as ttm_module
from repro.machine.cost_tracker import CostTracker
from repro.tensor.intermediate import rank_first
from repro.tensor.ttm import first_contraction, trailing_contraction
from repro.tensor.ttv import contract_intermediate_mode

pytestmark = pytest.mark.property


_LETTERS = "abcde"
_dtypes = st.sampled_from([np.float64, np.float32])
_layouts = st.sampled_from(["c", "fortran", "sliced", "transposed"])
_shapes = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple)


def ttm_oracle(tensor, factor, mode):
    subs = _LETTERS[:tensor.ndim]
    kept = subs.replace(subs[mode], "")
    return np.einsum(f"{subs},{subs[mode]}R->{kept}R", tensor, factor)


def mttv_oracle(intermediate, factor, axis):
    subs = _LETTERS[:intermediate.ndim - 1]
    kept = subs.replace(subs[axis], "")
    return np.einsum(f"{subs}R,{subs[axis]}R->{kept}R", intermediate, factor)


def _tolerance(dtype) -> dict:
    # same products, summed in BLAS order instead of einsum order
    return {"rtol": 1e-4, "atol": 1e-4} if dtype == np.float32 \
        else {"rtol": 1e-12, "atol": 1e-12}


def _array(rng, shape, dtype, layout):
    """Random array of ``shape`` in the requested memory layout."""
    if layout == "sliced":
        doubled = rng.standard_normal(tuple(2 * s for s in shape)).astype(dtype)
        return doubled[tuple(slice(None, None, 2) for _ in shape)]
    if layout == "transposed":
        return rng.standard_normal(shape[::-1]).astype(dtype).T
    array = rng.standard_normal(shape).astype(dtype)
    return np.asfortranarray(array) if layout == "fortran" else array


def _assert_layout(out, kept_shape, rank, dtype):
    assert out.shape == kept_shape + (rank,)
    assert out.dtype == dtype
    assert out.flags.writeable
    assert rank_first(out).flags.c_contiguous


@given(shape=_shapes, rank=st.integers(1, 4), dtype=_dtypes, layout=_layouts,
       factor_layout=st.sampled_from(["c", "fortran", "sliced"]),
       gemm_work=st.sampled_from([1, 16, 256, 1 << 19]),
       strided_rows=st.sampled_from([0, 2, 64]), seed=st.integers(0, 2**31 - 1))
def test_first_contraction_matches_einsum_on_every_mode(shape, rank, dtype, layout,
                                                        factor_layout, gemm_work,
                                                        strided_rows, seed):
    """Shrinking the two block constants makes these small shapes split the way
    large ones do: every block split is the same contraction."""
    rng = np.random.default_rng(seed)
    tensor = _array(rng, shape, dtype, layout)
    with mock.patch.object(ttm_module, "_GEMM_WORK", gemm_work), \
            mock.patch.object(ttm_module, "_STRIDED_ROWS", strided_rows):
        for mode, extent in enumerate(shape):
            factor = _array(rng, (extent, rank), dtype, factor_layout)
            out = first_contraction(tensor, factor, mode)
            _assert_layout(out, shape[:mode] + shape[mode + 1:], rank, dtype)
            np.testing.assert_allclose(out, ttm_oracle(tensor, factor, mode),
                                       **_tolerance(dtype))


@given(shape=st.lists(st.integers(1, 5), min_size=3, max_size=5).map(tuple),
       rank=st.integers(1, 4), dtype=_dtypes, layout=_layouts,
       factor_layout=st.sampled_from(["c", "fortran", "sliced"]),
       unpacked=st.sampled_from([1, 16, 256, 10**6]), seed=st.integers(0, 2**31 - 1))
def test_trailing_contraction_matches_einsum_for_every_split(shape, rank, dtype, layout,
                                                             factor_layout, unpacked, seed):
    """Shrinking the unpacked-GEMM bound makes these small shapes split into
    row blocks (with a remainder) the way large ones do."""
    rng = np.random.default_rng(seed)
    tensor = _array(rng, shape, dtype, layout)
    subs = _LETTERS[:len(shape)]
    with mock.patch.object(ttm_module, "_UNPACKED_GEMM", unpacked):
        for k in range(2, len(shape)):
            factors = [_array(rng, (s, rank), dtype, factor_layout) for s in shape[-k:]]
            out = trailing_contraction(tensor, factors)
            _assert_layout(out, shape[:-k], rank, dtype)
            spec = ",".join([subs] + [f"{c}R" for c in subs[-k:]]) + f"->{subs[:-k]}R"
            np.testing.assert_allclose(out, np.einsum(spec, tensor, *factors),
                                       **_tolerance(dtype))


@given(shape=_shapes, rank=st.integers(1, 4), dtype=_dtypes, layout=_layouts,
       seed=st.integers(0, 2**31 - 1))
def test_contract_intermediate_mode_matches_einsum_on_every_axis(shape, rank, dtype,
                                                                 layout, seed):
    rng = np.random.default_rng(seed)
    intermediate = _array(rng, shape + (rank,), dtype, layout)
    for axis, extent in enumerate(shape):
        factor = _array(rng, (extent, rank), dtype, "c")
        out = contract_intermediate_mode(intermediate, factor, axis)
        _assert_layout(out, shape[:axis] + shape[axis + 1:], rank, dtype)
        np.testing.assert_allclose(out, mttv_oracle(intermediate, factor, axis),
                                   **_tolerance(dtype))


@given(shape=st.lists(st.integers(1, 4), min_size=2, max_size=5).map(tuple),
       rank=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_descent_chain_matches_einsum_and_charges_the_paper_counts(shape, rank, seed):
    """TTM then mTTVs down to one mode, on the kernels' own intermediates:
    the chain is the MTTKRP, and the tracker sees the counts of the einsum
    kernels it replaced (``2 size R`` / ``2 size`` flops, input + output words)."""
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(shape)
    factors = [rng.standard_normal((s, rank)) for s in shape]
    tracker = CostTracker()
    array = first_contraction(tensor, factors[-1], len(shape) - 1, tracker=tracker)
    flops = {"ttm": 2 * tensor.size * rank, "mttv": 0}
    words = tensor.size + array.size
    for mode in range(len(shape) - 2, 0, -1):
        flops["mttv"] += 2 * array.size
        words += array.size
        array = contract_intermediate_mode(array, factors[mode], mode, tracker=tracker)
        words += array.size
    subs = _LETTERS[:len(shape)]
    spec = ",".join([subs] + [f"{s}R" for s in subs[1:]]) + "->aR"
    np.testing.assert_allclose(array, np.einsum(spec, tensor, *factors[1:]),
                               rtol=1e-10, atol=1e-10)
    assert tracker.flops_by_category.get("ttm", 0) == flops["ttm"]
    assert tracker.flops_by_category.get("mttv", 0) == flops["mttv"]
    assert tracker.total_vertical_words == words
    assert set(tracker.seconds_by_category) <= {"ttm", "mttv"}


def test_mixed_precision_promotes_like_einsum():
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((3, 4, 2)).astype(np.float32)
    factor = rng.standard_normal((4, 2))
    out = first_contraction(tensor, factor, 1)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, ttm_oracle(tensor, factor, 1), rtol=1e-12, atol=1e-12)
    step = contract_intermediate_mode(out.astype(np.float32), rng.standard_normal((3, 2)), 0)
    assert step.dtype == np.float64


def test_wrong_shapes_raise_value_error():
    rng = np.random.default_rng(1)
    tensor = rng.standard_normal((3, 4, 2))
    with pytest.raises(ValueError, match="cannot contract mode 1 of size 4"):
        first_contraction(tensor, rng.standard_normal((3, 2)), 1)
    with pytest.raises(ValueError, match="cannot contract mode"):
        first_contraction(tensor, rng.standard_normal(4), 1)
    with pytest.raises(ValueError):
        first_contraction(tensor, rng.standard_normal((4, 2)), 3)
    intermediate = rng.standard_normal((3, 4, 2))
    with pytest.raises(ValueError, match="axis 2 out of range"):
        contract_intermediate_mode(intermediate, rng.standard_normal((2, 2)), 2)
    with pytest.raises(ValueError, match="axis -1 out of range"):
        contract_intermediate_mode(intermediate, rng.standard_normal((4, 2)), -1)
    with pytest.raises(ValueError, match="incompatible with intermediate axis 1"):
        contract_intermediate_mode(intermediate, rng.standard_normal((4, 3)), 1)
    with pytest.raises(ValueError, match="incompatible with intermediate axis 0"):
        contract_intermediate_mode(intermediate, rng.standard_normal((4, 2)), 0)
    with pytest.raises(ValueError, match="at least one tensor mode"):
        contract_intermediate_mode(rng.standard_normal(5), rng.standard_normal((5, 2)), 0)
