"""Property tests: :func:`repro.sparse.ordering.lex_order` against ``np.lexsort``.

``np.lexsort`` is what every call site used before the primitive existed; it
stays here, under ``tests/``, as the oracle (``src/`` keeps it only as the
branch for extents whose product leaves int64).  The permutation has to be
*equal* to the oracle's, equal rows in input order, on every branch — that is
what makes iterates and summed duplicates bit-identical to the old code.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sparse.ordering import lex_order, run_starts

pytestmark = pytest.mark.property


def oracle(columns, n_rows):
    """``(perm, starts)`` the old spelling gives; ``perm`` always an array."""
    perm = np.lexsort(tuple(columns)[::-1])
    return perm, run_starts([col[perm] for col in columns], n_rows)


def check(columns, extents):
    columns = [np.asarray(col, dtype=np.int64) for col in columns]
    n_rows = columns[0].shape[0]
    perm, starts = lex_order(columns, extents)
    want_perm, want_starts = oracle(columns, n_rows)
    in_order = np.array_equal(want_perm, np.arange(n_rows))  # lexsort is stable
    assert (perm is None) == in_order
    if perm is not None:
        assert perm.dtype == np.intp
        np.testing.assert_array_equal(perm, want_perm)
    assert starts.dtype == np.int64
    np.testing.assert_array_equal(starts, want_starts)
    return perm


@st.composite
def rows(draw):
    """Integer rows of order 1-5 with small extents (so rows repeat), extent-1
    modes, and the sorted / reversed / single-row / empty shapes."""
    order = draw(st.integers(1, 5))
    extents = [draw(st.sampled_from([1, 2, 3, 7])) for _ in range(order)]
    n_rows = draw(st.sampled_from([0, 1, 2, 5, 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, extents, size=(n_rows, order))
    kind = draw(st.sampled_from(["random", "sorted", "reversed"]))
    if kind != "random":
        matrix = matrix[np.lexsort(matrix.T[::-1])]
        if kind == "reversed":
            matrix = matrix[::-1]
    return matrix, extents


@given(rows(), st.data())
def test_every_key_subset_and_order_matches_lexsort(case, data):
    matrix, extents = case
    order = matrix.shape[1]
    size = data.draw(st.integers(1, order))
    keys = data.draw(st.permutations(range(order)))[:size]
    check([matrix[:, m] for m in keys], [extents[m] for m in keys])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_all_key_orders_of_one_matrix(order):
    rng = np.random.default_rng(order)
    extents = [3, 1, 4, 2][:order]
    matrix = rng.integers(0, extents, size=(40, order))
    for size in range(1, order + 1):
        for keys in itertools.permutations(range(order), size):
            check([matrix[:, m] for m in keys], [extents[m] for m in keys])


@pytest.mark.parametrize("extent", [65_535, 65_536, 65_537])
def test_extents_around_the_uint16_bound(extent):
    # the largest coordinate must survive the narrowing (or not be narrowed)
    col = np.array([extent - 1, 0, extent - 1, 1, extent // 2, 0])
    check([col], [extent])
    check([col % 2, col], [2, extent])


@pytest.mark.parametrize("bound", [2**31 - 1, 2**31, 2**31 + 1])
def test_linearised_bounds_around_int32(bound):
    rng = np.random.default_rng(bound % 97)
    lead = rng.integers(0, 3, size=50)
    tail = np.concatenate(([bound - 1, 0, bound - 1], rng.integers(0, bound, size=47)))
    check([lead, tail], [3, bound])
    check([tail, lead], [bound, 3])


def test_key_times_rows_beyond_int64_sorts_the_key_stably():
    # prod(extents) = 2**62 fits, 2**62 * 4 rows does not: no row number is
    # appended, and the equal rows 0 and 2 must still keep their input order
    extent = 2**31
    cols = [np.array([5, 0, 5, extent - 1]), np.array([extent - 1, 3, extent - 1, 0])]
    perm = check(cols, [extent, extent])
    assert perm.tolist() == [1, 0, 2, 3]


@pytest.mark.parametrize("extents", [(2**22,) * 3, (2**63,), (2**40, 2**40)])
def test_product_beyond_int64_falls_back_to_lexsort(extents):
    rng = np.random.default_rng(len(extents))
    columns = [rng.integers(0, min(e, 2**62), size=20) for e in extents]
    columns[0][[3, 7]] = extents[0] - 1 if extents[0] <= 2**62 else 2**62
    for col in columns:
        col[11] = col[2]                       # one duplicated row
    check(columns, extents)
    ordered = [col[np.lexsort(tuple(columns)[::-1])] for col in columns]
    assert lex_order(ordered, extents)[0] is None


def test_largest_product_that_still_fits():
    # prod(extents) == 2**63 - 1 exactly: the key path, not the fallback
    extent = 2**63 - 1
    check([np.array([extent - 1, 0, 7, extent - 1])], [extent])
