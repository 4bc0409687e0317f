"""Regression tests for the CSF builder (`repro.sparse.csf`).

Covers the ISSUE-3 satellite checklist: duplicate coalescing, empty slices,
single-nonzero and all-nonzeros-in-one-fiber tensors, plus the structural
invariants every consumer (the sparse dimension tree) relies on.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.options import ALSOptions, PPOptions
from repro.sparse import CooTensor, CsfTensor, SegmentSum


def _random_coo(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random(shape) * (rng.random(shape) < density)
    return dense, CooTensor.from_dense(dense)


def _check_invariants(csf: CsfTensor):
    """Structural invariants of a CSF layout, independent of the content."""
    ndim = csf.ndim
    assert len(csf.levels) == ndim
    for depth, level in enumerate(csf.levels):
        n = level.n_nodes
        assert level.ptr.shape == (n + 1,)
        assert level.ptr[0] == 0
        assert np.all(np.diff(level.ptr) >= 1), "every node has >= 1 child"
        limit = csf.nnz if depth == ndim - 1 else csf.levels[depth + 1].n_nodes
        assert level.ptr[-1] == limit
        # fiber index rows are unique and lexicographically sorted
        fibers = csf.fiber_index(depth)
        assert fibers.shape == (n, depth + 1)
        if n > 1:
            diff = fibers[1:] != fibers[:-1]
            assert np.all(diff.any(axis=1)), "fibers must be unique"
            # lexicographic: the first differing column must increase
            first_diff = diff.argmax(axis=1)
            rows = np.arange(n - 1)
            assert np.all(fibers[1:][rows, first_diff]
                          > fibers[:-1][rows, first_diff])
        # value_ptr is consistent with fiber_counts
        vptr = csf.value_ptr(depth)
        assert vptr[0] == 0 and vptr[-1] == csf.nnz
        assert np.array_equal(np.diff(vptr), csf.fiber_counts(depth))
    # fiber counts never increase with depth refinement
    for depth in range(ndim - 1):
        assert csf.n_fibers(depth) <= csf.n_fibers(depth + 1)
    assert csf.n_fibers(ndim - 1) == csf.nnz


class TestCsfBuilder:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_round_trip_and_invariants(self, order):
        shape = tuple(range(4, 4 + order))
        dense, coo = _random_coo(shape, density=0.4, seed=order)
        for mode_order in (None, tuple(reversed(range(order)))):
            csf = CsfTensor.from_coo(coo, mode_order)
            _check_invariants(csf)
            back = csf.to_coo()
            assert np.array_equal(back.indices, coo.indices)
            np.testing.assert_allclose(back.values, coo.values)

    def test_identity_ordering_shares_storage(self):
        _, coo = _random_coo((5, 4, 3), density=0.5, seed=1)
        csf = CsfTensor.from_coo(coo)
        assert csf.perm is None          # canonical COO order reused as-is
        assert csf.values is coo.values  # no gather, no copy

    def test_non_identity_ordering_sorts(self):
        _, coo = _random_coo((5, 4, 3), density=0.5, seed=2)
        csf = CsfTensor.from_coo(coo, (2, 0, 1))
        assert csf.perm is not None
        cols = [csf.sorted_column(d) for d in range(3)]
        # primary key (mode 2) non-decreasing; full key lexicographic
        assert np.all(np.diff(cols[0]) >= 0)
        lin = np.ravel_multi_index(
            (cols[0], cols[1], cols[2]),
            tuple(coo.shape[m] for m in (2, 0, 1)),
        )
        assert np.all(np.diff(lin) > 0)  # strictly: coordinates are unique

    def test_duplicate_coordinates_are_coalesced(self):
        """Duplicates are summed before the layout sees them (COO canonical)."""
        indices = np.array([[1, 2], [0, 1], [1, 2], [0, 1], [0, 1]])
        values = np.array([1.0, 2.0, 10.0, 3.0, 4.0])
        coo = CooTensor(indices, values, (3, 3))
        csf = CsfTensor.from_coo(coo)
        assert csf.nnz == 2
        assert csf.n_fibers(0) == 2 and csf.n_fibers(1) == 2
        np.testing.assert_allclose(csf.values, [9.0, 11.0])  # (0,1), (1,2)
        np.testing.assert_allclose(csf.to_coo().to_dense(), coo.to_dense())

    def test_empty_tensor(self):
        coo = CooTensor(np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 5, 6))
        csf = CsfTensor.from_coo(coo, (1, 0, 2))
        _check_invariants(csf)
        for depth in range(3):
            assert csf.n_fibers(depth) == 0
            assert csf.value_ptr(depth).tolist() == [0]
        assert csf.to_coo().nnz == 0

    def test_empty_slices_do_not_create_nodes(self):
        """Slices with no nonzeros simply have no fiber — no padding nodes."""
        dense = np.zeros((5, 4, 3))
        dense[0, 1, 2] = 1.0
        dense[4, 1, 0] = 2.0   # slices 1..3 of mode 0 are empty
        coo = CooTensor.from_dense(dense)
        csf = CsfTensor.from_coo(coo)
        assert csf.levels[0].index.tolist() == [0, 4]
        assert coo.empty_slices(0).tolist() == [1, 2, 3]

    def test_single_nonzero(self):
        dense = np.zeros((3, 4, 5))
        dense[1, 2, 3] = 7.0
        coo = CooTensor.from_dense(dense)
        for mode_order in (None, (2, 1, 0), (1, 0, 2)):
            csf = CsfTensor.from_coo(coo, mode_order)
            _check_invariants(csf)
            assert all(level.n_nodes == 1 for level in csf.levels)
            np.testing.assert_allclose(csf.to_coo().to_dense(), dense)

    def test_all_nonzeros_in_one_fiber(self):
        """A single dense fiber: one node per prefix level, nnz leaves."""
        dense = np.zeros((4, 3, 6))
        dense[2, 1, :] = np.arange(1.0, 7.0)
        coo = CooTensor.from_dense(dense)
        csf = CsfTensor.from_coo(coo)
        _check_invariants(csf)
        assert csf.n_fibers(0) == 1 and csf.n_fibers(1) == 1
        assert csf.n_fibers(2) == 6
        assert csf.levels[1].ptr.tolist() == [0, 6]
        np.testing.assert_allclose(csf.values, np.arange(1.0, 7.0))

    def test_rejects_bad_inputs(self):
        _, coo = _random_coo((3, 3), density=0.5, seed=3)
        with pytest.raises(TypeError, match="CooTensor"):
            CsfTensor.from_coo(np.eye(3))
        with pytest.raises(ValueError, match="permutation"):
            CsfTensor.from_coo(coo, (0, 0))
        with pytest.raises(ValueError, match="permutation"):
            CsfTensor.from_coo(coo, (0, 2))


class TestSegmentSumRuns:
    """The run form's edge cases: empty and single-row runs, malformed offsets."""

    def test_matches_loop(self):
        rng = np.random.default_rng(7)
        block = rng.random((10, 3))
        starts = np.array([0, 2, 3, 7])
        out = SegmentSum(starts, 10) @ block
        bounds = np.append(starts, 10)
        for k in range(4):
            np.testing.assert_allclose(out[k],
                                       block[bounds[k]:bounds[k + 1]].sum(0))

    def test_degenerate(self):
        empty = np.zeros(0, dtype=np.int64)
        assert (SegmentSum(empty, 0) @ np.zeros((0, 4))).shape == (0, 4)
        one = np.arange(8.0).reshape(2, 4)
        # singleton runs: the block is its own reduction, in a fresh array
        out = SegmentSum(np.array([0, 1]), 2) @ one
        np.testing.assert_array_equal(out, one)
        assert not np.shares_memory(out, one) and out.flags.writeable

    def test_empty_starts_nonempty_block_raises(self):
        # regression: this used to return an empty result, silently dropping
        # every row of the block (a 1-row block goes through run_starts,
        # which previously produced an empty offset array for it)
        with pytest.raises(ValueError, match="empty starts"):
            SegmentSum(np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="empty starts"):
            SegmentSum(np.zeros(0, dtype=np.int64), 1)

    def test_run_starts_single_row(self):
        from repro.sparse.csf import run_starts

        # regression: a single sorted row is one run starting at 0, not zero
        # runs — the sum over run_starts([row]) must keep the row
        col = np.array([7])
        starts = run_starts([col], 1)
        np.testing.assert_array_equal(starts, [0])
        block = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(SegmentSum(starts, 1) @ block, block)
        # and the empty case still yields no runs
        assert run_starts([np.array([], dtype=np.int64)], 0).shape == (0,)

    @pytest.mark.parametrize("starts, offending", [
        ([2, 4], r"starts\[0\] = 2"),          # used to drop rows 0-1
        ([0, 4, 4], r"starts\[2\] = 4"),       # used to count row 4 twice
        ([0, 4, 2], r"starts\[2\] = 2"),       # decreasing: likewise
        ([0, 3, 6], r"starts\[2\] = 6"),       # a run that starts past the end
        ([-1, 2], r"starts\[0\] = -1"),
        ([1, 2, 3, 4, 5, 6], r"starts\[0\] = 1"),  # as many runs as rows
    ])
    def test_malformed_starts_raise_naming_the_offset(self, starts, offending):
        # regression: each of these returned sums, silently wrong ones
        with pytest.raises(ValueError, match=offending):
            SegmentSum(np.array(starts), 6)


class TestSegmentSum:
    def test_construction_rejects_inconsistent_structure(self):
        starts = np.array([0, 2])
        with pytest.raises(ValueError, match="1-d integer"):
            SegmentSum(np.array([0.0, 2.0]), 4)
        with pytest.raises(ValueError, match="require n_columns"):
            SegmentSum(starts, 4, columns=np.arange(4))
        with pytest.raises(ValueError, match=r"columns must lie in \[0, 3\)"):
            SegmentSum(starts, 4, columns=np.array([0, 1, 2, 3]), n_columns=3)
        with pytest.raises(ValueError, match="length-4"):
            SegmentSum(starts, 4, columns=np.arange(3), n_columns=3)
        with pytest.raises(ValueError, match="weights must have shape"):
            SegmentSum(starts, 4, weights=np.ones(3))
        with pytest.raises(ValueError, match="without gather columns"):
            SegmentSum(starts, 4, n_columns=5)
        with pytest.raises(ValueError, match=r"rows must lie in \[0, 2\)"):
            SegmentSum.scatter(np.array([0, 2]), 2)
        with pytest.raises(ValueError, match=r"rows must lie in \[0, 2\)"):
            SegmentSum.scatter(np.array([-1, 0]), 2)
        with pytest.raises(ValueError, match="1-d integer"):
            SegmentSum.scatter(np.zeros((2, 2), dtype=np.int64), 2)

    def test_block_of_the_wrong_height_raises(self):
        with pytest.raises(ValueError):
            SegmentSum(np.array([0, 2]), 4) @ np.ones((5, 2))
        with pytest.raises(ValueError):
            SegmentSum.scatter(np.array([0, 1, 1]), 2) @ np.ones((4, 2))

    def test_immutable_and_detached_from_its_inputs(self):
        starts = np.array([0, 2])
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        op = SegmentSum(starts, 4, weights=weights)
        with pytest.raises(AttributeError):
            op.extra = 1
        for part in (op._matrix.data, op._matrix.indices, op._matrix.indptr):
            assert not part.flags.writeable
        # weights may be shared, not copied, but the caller's array stays its own
        assert weights.flags.writeable
        block = np.ones((4, 1))
        np.testing.assert_array_equal(op @ block, [[3.0], [7.0]])
        starts[1] = 3  # the run structure was copied into the row pointer
        np.testing.assert_array_equal(op @ block, [[3.0], [7.0]])

    def test_one_dimensional_block(self):
        op = SegmentSum(np.array([0, 1, 3]), 4)
        np.testing.assert_array_equal(op @ np.array([1.0, 2.0, 3.0, 4.0]),
                                      [1.0, 5.0, 4.0])

    def test_nbytes_counts_the_stored_pattern(self):
        op = SegmentSum(np.array([0, 2]), 4, dtype=np.float32)
        # 4 float32 weights + 4 int32 columns + 3 int32 row-pointer entries
        assert op.nbytes == 4 * 4 + 4 * 4 + 3 * 4
        assert op.dtype == np.float32

    def test_concurrent_apply_on_a_shared_operator(self):
        """Two threads applying one operator get the serial result, every time."""
        rng = np.random.default_rng(5)
        n_rows, n_out, rank = 4000, 50, 8
        run_op = SegmentSum(np.arange(0, n_rows, 40), n_rows,
                            columns=rng.permutation(n_rows), n_columns=n_rows,
                            weights=rng.random(n_rows))
        scatter_op = SegmentSum.scatter(rng.integers(0, n_out, n_rows), n_out)
        blocks = [rng.random((n_rows, rank)) for _ in range(2)]
        serial = [(run_op @ b, scatter_op @ b) for b in blocks]
        mismatches: list[int] = []

        def worker(i: int) -> None:
            for _ in range(200):
                got = (run_op @ blocks[i], scatter_op @ blocks[i])
                if not all(np.array_equal(g, s) for g, s in zip(got, serial[i])):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i % 2,))
                       for i in range(4)]  # more threads than cores
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


def _lexsort_layout(coo: CooTensor, order):
    """The layout as it was built before ``lex_order``: ``np.lexsort`` over the
    int64 columns, run offsets from the sorted columns, every level eagerly."""
    cols = [coo.indices[:, m] for m in order]
    perm = np.lexsort(tuple(reversed(cols)))
    cols = [col[perm] for col in cols]
    nnz, ndim = coo.nnz, coo.ndim
    changed = np.zeros(max(nnz - 1, 0), dtype=bool)
    starts = []
    for d in range(ndim):
        changed |= cols[d][1:] != cols[d][:-1]
        starts.append(np.concatenate(([0], np.flatnonzero(changed) + 1)))
    levels = []
    for d in range(ndim):
        ptr = (np.concatenate((starts[d], [nnz])) if d == ndim - 1 else
               np.concatenate((np.searchsorted(starts[d + 1], starts[d]),
                               [starts[d + 1].shape[0]])))
        levels.append((cols[d][starts[d]], ptr))
    return perm, cols, starts, levels


class TestLayoutEqualsLexsortConstruction:
    """``perm``, ``levels``, ``fiber_index`` and ``value_ptr`` for all ``N!``
    orderings are those of the ``np.lexsort`` construction they replaced."""

    @pytest.mark.parametrize("shape", [(6, 5, 7), (4, 1, 5, 3)])
    def test_every_ordering(self, shape):
        import itertools

        _, coo = _random_coo(shape, density=0.4, seed=len(shape))
        for order in itertools.permutations(range(len(shape))):
            csf = CsfTensor(coo, order)
            perm, cols, starts, levels = _lexsort_layout(coo, order)
            if csf.perm is None:
                assert np.array_equal(perm, np.arange(coo.nnz))
            else:
                assert np.array_equal(csf.perm, perm)
            np.testing.assert_array_equal(csf.values, coo.values[perm])
            assert len(csf.levels) == len(shape)
            for d, (index, ptr) in enumerate(levels):
                assert csf.levels[d].index.dtype == np.int64
                assert csf.levels[d].ptr.dtype == np.int64
                np.testing.assert_array_equal(csf.levels[d].index, index)
                np.testing.assert_array_equal(csf.levels[d].ptr, ptr)
                np.testing.assert_array_equal(
                    csf.value_ptr(d), np.concatenate((starts[d], [coo.nnz])))
                np.testing.assert_array_equal(
                    csf.fiber_index(d),
                    np.stack([cols[j][starts[d]] for j in range(d + 1)], axis=1))
                assert csf.n_fibers(d) == starts[d].shape[0]

    def test_levels_are_built_on_first_access_and_then_counted(self):
        _, coo = _random_coo((6, 5, 7), density=0.4, seed=3)
        csf = CsfTensor(coo, (2, 0, 1))
        assert csf._levels is None
        before = csf.nbytes
        levels = csf.levels
        assert csf.levels is levels                      # built once
        assert csf.nbytes == before + sum(level.nbytes for level in levels)

    @pytest.mark.parametrize("driver", ["dt", "msdt", "pp"])
    def test_no_run_builds_levels(self, driver):
        from repro import cp_als, pp_cp_als

        _, coo = _random_coo((7, 6, 5), density=0.5, seed=4)
        if driver == "pp":
            result = pp_cp_als(coo,
                               PPOptions(rank=2, n_sweeps=8, tol=0.0, pp_tol=0.9,
                                         seed=0))
            assert "pp-init" in [record.sweep_type for record in result.sweeps]
        else:
            cp_als(coo, ALSOptions(rank=2, n_sweeps=2, tol=0.0, mttkrp=driver, seed=0))
        layouts = list(coo._csf_cache.values())
        assert len(layouts) >= 2
        assert all(layout._levels is None for layout in layouts)
        _check_invariants(layouts[-1])                   # correct when asked for


class TestDuplicateSums:
    def test_bit_identical_to_reduceat_in_input_order(self):
        """Equal coordinates are summed in the order they were handed over,
        as ``np.add.reduceat`` over the stably sorted values did."""
        rng = np.random.default_rng(5)
        shape = (9, 8, 7)
        indices = rng.integers(0, shape, size=(400, 3))
        indices[rng.integers(0, 400, size=120)] = indices[rng.integers(0, 400, size=120)]
        values = rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, size=400)
        coo = CooTensor(indices, values, shape)
        order = np.lexsort(indices.T[::-1])
        sorted_idx = indices[order]
        keep = np.ones(400, dtype=bool)
        keep[1:] = np.any(sorted_idx[1:] != sorted_idx[:-1], axis=1)
        assert not keep.all()
        np.testing.assert_array_equal(coo.indices, sorted_idx[keep])
        assert np.array_equal(
            coo.values, np.add.reduceat(values[order], np.flatnonzero(keep)))
