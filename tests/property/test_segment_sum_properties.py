"""Property tests: :class:`repro.sparse.csf.SegmentSum` against straight-line oracles.

The oracles are the implementations the operator replaced — ``np.add.reduceat``
over gathered, weighted rows for the run form and a Python scatter loop for
the placement form.  They live here, under ``tests/``, and nowhere in ``src/``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sparse import csf
from repro.sparse.csf import SegmentSum

pytestmark = pytest.mark.property

_dtypes = st.sampled_from([np.float64, np.float32])


def reduceat_oracle(block, starts, columns=None, weights=None):
    """Gather, weight, then ``np.add.reduceat`` (needs at least one run)."""
    rows = block if columns is None else block[columns]
    if weights is not None:
        rows = weights[:, None].astype(block.dtype) * rows
    return np.add.reduceat(rows, starts, axis=0)


def scatter_oracle(block, rows, n_out):
    out = np.zeros((n_out, block.shape[1]), dtype=block.dtype)
    for i, r in enumerate(rows):
        out[r] += block[i]
    return out


def _tolerance(dtype) -> dict:
    # same additions in the same order; the slack covers a fused multiply-add
    return {"rtol": 1e-5, "atol": 1e-5} if dtype == np.float32 \
        else {"rtol": 1e-12, "atol": 1e-12}


@st.composite
def runs(draw, min_rows=1):
    """``(starts, n_rows)`` with runs of length >= 1, the extreme shapes included."""
    n_rows = draw(st.integers(min_rows, 40))
    kind = draw(st.sampled_from(["random", "single_rows", "one_run"]))
    if kind == "single_rows":
        cuts = list(range(1, n_rows))
    elif kind == "one_run":
        cuts = []
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n_rows - 1)))) if n_rows > 1 else []
    return np.array([0] + cuts, dtype=np.int64), n_rows


def _block(rng, n_rows, rank, dtype, layout):
    """A ``(n_rows, rank)`` block: C order, Fortran order or a strided column slice."""
    if layout == "strided":
        return rng.standard_normal((n_rows, 2 * rank)).astype(dtype)[:, ::2]
    block = rng.standard_normal((n_rows, rank)).astype(dtype)
    return np.asfortranarray(block) if layout == "fortran" else block


@given(run=runs(), rank=st.integers(1, 5), dtype=_dtypes, seed=st.integers(0, 2**31 - 1),
       layout=st.sampled_from(["c", "fortran", "strided"]))
def test_plain_runs_match_reduceat(run, rank, dtype, seed, layout):
    starts, n_rows = run
    block = _block(np.random.default_rng(seed), n_rows, rank, dtype, layout)
    op = SegmentSum(starts, n_rows, dtype=dtype)
    out = op @ block
    assert op.shape == (len(starts), n_rows)
    assert out.dtype == dtype and out.flags.writeable
    np.testing.assert_allclose(out, reduceat_oracle(block, starts), **_tolerance(dtype))


@given(run=runs(), rank=st.integers(1, 4), dtype=_dtypes, seed=st.integers(0, 2**31 - 1),
       use_weights=st.booleans(), gather=st.sampled_from(["perm", "columns"]))
def test_gather_columns_weights_and_folded_permutation(run, rank, dtype, seed,
                                                       use_weights, gather):
    starts, n_rows = run
    rng = np.random.default_rng(seed)
    if gather == "perm":      # a regrouping folded into the column indices
        n_columns = n_rows
        columns = rng.permutation(n_rows)
    else:                     # a gather out of a shorter (or taller) operand
        n_columns = int(rng.integers(1, 12))
        columns = rng.integers(0, n_columns, size=n_rows)
    weights = rng.standard_normal(n_rows) if use_weights else None
    block = rng.standard_normal((n_columns, rank)).astype(dtype)
    op = SegmentSum(starts, n_rows, columns=columns, n_columns=n_columns,
                    weights=weights, dtype=dtype)
    out = op @ block
    assert out.dtype == dtype
    np.testing.assert_allclose(out, reduceat_oracle(block, starts, columns, weights),
                               **_tolerance(dtype))


@given(n_rows=st.integers(0, 40), n_out=st.integers(1, 12), rank=st.integers(1, 4),
       dtype=_dtypes, seed=st.integers(0, 2**31 - 1))
def test_scatter_matches_loop_and_empty_rows_sum_to_zero(n_rows, n_out, rank, dtype, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_out, size=n_rows)
    block = rng.standard_normal((n_rows, rank)).astype(dtype)
    op = SegmentSum.scatter(rows, n_out, dtype=dtype)
    out = op @ block
    assert op.shape == (n_out, n_rows)
    assert out.dtype == dtype and out.shape == (n_out, rank)
    np.testing.assert_allclose(out, scatter_oracle(block, rows, n_out),
                               **_tolerance(dtype))
    untouched = np.setdiff1d(np.arange(n_out), rows)
    assert not out[untouched].any()


@given(run=runs(), rank=st.integers(1, 3), seed=st.integers(0, 2**31 - 1),
       force64=st.booleans())
def test_index_width_follows_the_counts(run, rank, seed, force64):
    """32-bit indices while every count fits, 64-bit beyond; same sums either way."""
    starts, n_rows = run
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((n_rows, rank))
    rows = rng.integers(0, 5, size=n_rows)
    # the limit moved down to 0 stands in for counts beyond 2**31 - 1
    with mock.patch.object(csf, "_INT32_MAX", 0 if force64 else csf._INT32_MAX):
        ops = [SegmentSum(starts, n_rows), SegmentSum.scatter(rows, 5)]
    want = np.int64 if force64 else np.int32
    for op in ops:
        assert op._matrix.indices.dtype == want
        assert op._matrix.indptr.dtype == want
    np.testing.assert_allclose(ops[0] @ block, reduceat_oracle(block, starts),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ops[1] @ block, scatter_oracle(block, rows, 5),
                               rtol=1e-12, atol=1e-12)


@given(rank=st.integers(1, 4), dtype=_dtypes)
def test_zero_rows(rank, dtype):
    empty = np.zeros(0, dtype=np.int64)
    block = np.zeros((0, rank), dtype=dtype)
    out = SegmentSum(empty, 0, dtype=dtype) @ block
    assert out.shape == (0, rank) and out.dtype == dtype
    out = SegmentSum.scatter(empty, 3, dtype=dtype) @ block
    assert out.shape == (3, rank) and out.dtype == dtype and not out.any()
