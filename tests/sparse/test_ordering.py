"""What the sparse set-up sorts, and what it says about it (`repro.sparse.ordering`).

Equality of the permutation with ``np.lexsort`` is the property suite's
(``tests/property/test_ordering_properties.py``); here the *number* of sorts a
request pays is pinned, by counting the ``argsort`` / ``lexsort`` calls the
primitive makes, together with the ``DEBUG`` records it writes and the exact
``size`` of a tensor whose cell count leaves int64, and what a grouping over
a subset of the modes looks like.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import cp_als
from repro.core.options import ALSOptions
from repro.core.updates import MaskedLeastSquaresUpdate
from repro.data.sparse_synthetic import sparse_skewed_count_tensor
from repro.distributed import DistSparseTensor
from repro.grid import ProcessorGrid
from repro.sparse import CooTensor, CsfTensor, ordering


class _CountingNumpy:
    """``numpy`` as the primitive sees it, recording the rows of every sort."""

    def __init__(self):
        self.sorted_rows: list[int] = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, a, **kwargs):
        self.sorted_rows.append(len(a))
        return np.argsort(a, **kwargs)

    def lexsort(self, keys):
        self.sorted_rows.append(len(keys[0]))
        return np.lexsort(keys)


@pytest.fixture
def sorts(monkeypatch):
    counter = _CountingNumpy()
    monkeypatch.setattr(ordering, "np", counter)
    return counter.sorted_rows


@pytest.fixture(scope="module")
def tensor():
    return sparse_skewed_count_tensor((40, 36, 30), 0.05, alpha=1.1, seed=3)


class TestSortsAreCounted:
    def test_cold_dt_request_sorts_the_nonzeros_once(self, tensor, sorts):
        """Order 3, ``dt``: of the two root layouts one is the canonical order,
        and the three fiber steps all sum into a single mode's rows."""
        cold = tensor.copy()
        cp_als(cold, ALSOptions(rank=3, n_sweeps=1, tol=0.0, mttkrp="dt", seed=0))
        assert sorts == [tensor.nnz]
        # the layouts live on the tensor object: the next request builds none
        cp_als(cold, ALSOptions(rank=3, n_sweeps=2, tol=0.0, mttkrp="dt", seed=1))
        assert sorts == [tensor.nnz]

    def test_canonical_input_is_not_sorted(self, tensor, sorts):
        again = CooTensor(tensor.indices, tensor.values, tensor.shape)
        assert sorts == []
        np.testing.assert_array_equal(again.indices, tensor.indices)
        np.testing.assert_array_equal(again.values, tensor.values)

    @pytest.mark.parametrize("partitioner", ["uniform", "nnz-balanced", "joint"])
    @pytest.mark.parametrize("dims", [(2, 1, 2), (1, 2, 2), (4, 1, 1)])
    def test_contiguous_partitions_hand_over_sorted_blocks(self, tensor, sorts,
                                                           partitioner, dims):
        """Slices map to block positions monotonically, and the nonzeros are
        grouped by rank stably: no block is sorted.  The grouping itself is
        one radix sort of the rank column unless that is in order too (a grid
        that splits the leading mode only)."""
        dist = DistSparseTensor.from_coo(tensor, ProcessorGrid(dims), partitioner)
        assert sorts == ([] if dims == (4, 1, 1) else [tensor.nnz])
        np.testing.assert_array_equal(dist.to_coo().indices, tensor.indices)
        np.testing.assert_array_equal(dist.to_coo().values, tensor.values)

    @pytest.mark.parametrize("partitioner", ["random", "cyclic"])
    def test_permuting_partitions_yield_the_same_blocks(self, tensor, sorts, partitioner):
        """A hashed partition scrambles the slices inside a block, so every
        non-empty block is sorted, once; a cyclic one keeps the slices of a
        block in their global order, so it is as good as a contiguous one."""
        grid = ProcessorGrid((1, 2, 2))
        dist = DistSparseTensor.from_coo(tensor, grid, partitioner, seed=5)
        counts = [int(n) for n in dist.local_nnz() if n]
        assert sorts == [tensor.nnz] + (counts if partitioner == "random" else [])
        # the blocks are the ones a from-scratch selection and lexsort gives
        ranks, local = dist.partition.assign(tensor.indices)
        for rank in grid.ranks():
            rows, values = local[ranks == rank], tensor.values[ranks == rank]
            order = np.lexsort(rows.T[::-1])
            block = dist.local_block(rank)
            np.testing.assert_array_equal(block.indices, rows[order])
            np.testing.assert_array_equal(block.values, values[order])

    def test_masked_rule_canonicalises_like_lexsort_and_dedupe(self, tensor, sorts):
        rng = np.random.default_rng(6)
        mask = np.concatenate((tensor.indices, tensor.indices[::7]))
        mask = mask[rng.permutation(mask.shape[0])]
        rule = MaskedLeastSquaresUpdate(mask, tensor.shape)
        assert sorts == [mask.shape[0]]
        np.testing.assert_array_equal(rule.mask_indices, tensor.indices)
        assert rule.mask_indices.flags.c_contiguous
        # already canonical: handed through, nothing sorted
        assert MaskedLeastSquaresUpdate(tensor.indices, tensor.shape).n_observed \
            == tensor.nnz
        assert sorts == [mask.shape[0]]


class TestGroupings:
    """``lex_order`` over a subset of a tensor's modes groups its nonzeros."""

    @pytest.mark.parametrize("modes", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
    def test_runs_are_the_unique_fibers(self, tensor, modes):
        cols = tensor.indices[:, list(modes)]
        perm, starts = ordering.lex_order(cols.T, [tensor.shape[m] for m in modes])
        permuted = cols if perm is None else cols[perm]
        np.testing.assert_array_equal(permuted[starts], np.unique(cols, axis=0))
        # every run is one fiber, and the runs cover all nonzeros
        bounds = np.append(starts, tensor.nnz)
        for k in range(starts.size):
            assert (permuted[bounds[k]:bounds[k + 1]] == permuted[starts[k]]).all()

    def test_mode0_prefixes_of_the_canonical_order_need_no_perm(self, tensor):
        def perm(modes):
            return ordering.lex_order([tensor.indices[:, m] for m in modes],
                                      [tensor.shape[m] for m in modes])[0]

        assert perm((0,)) is None and perm((0, 1)) is None
        assert perm((1,)) is not None


class TestHugeShapes:
    """``prod(shape) >= 2**63``: ``size`` is exact, and the same exact product
    sends the canonicalisation to the ``np.lexsort`` branch."""

    shape = (6400,) * 5          # 1.07e19 cells, 32 000 factor rows

    def _tensor(self):
        rng = np.random.default_rng(7)
        indices = rng.integers(0, 6400, size=(60, 5))
        indices[:3] = [[6399] * 5, [0] * 5, [6399] * 5]
        return indices, CooTensor(indices, np.ones(60), self.shape)

    def test_size_density_stats_and_repr(self):
        _, coo = self._tensor()
        assert coo.size == 6400**5 > 2**63 and isinstance(coo.size, int)
        assert 0.0 < coo.density < 1e-17
        assert coo.stats()["density"] == coo.density
        assert "nnz=59" in repr(coo)
        cube = CooTensor(np.zeros((1, 3), dtype=np.int64), np.ones(1), (2**22,) * 3)
        assert cube.size == 2**66 and "density=1.36e-20" in repr(cube)

    def test_linearize_still_refuses(self):
        _, coo = self._tensor()
        with pytest.raises(ValueError, match="larger than the maximum possible size"):
            coo.linearize(range(5))

    def test_canonicalises_through_the_fallback_and_decomposes(self, sorts):
        indices, coo = self._tensor()
        assert sorts == [60]
        np.testing.assert_array_equal(coo.indices, np.unique(indices, axis=0))
        assert coo.values[0] == 1.0 and coo.values[-1] == 2.0   # the duplicate, summed
        result = cp_als(coo,
                        ALSOptions(rank=2, n_sweeps=2, tol=0.0, mttkrp="dt", seed=0))
        assert np.isfinite(result.residual)
        assert [f.shape for f in result.factors] == [(6400, 2)] * 5


class TestDebugRecords:
    def test_one_record_per_ordering_names_the_branch(self, tensor, caplog):
        rng = np.random.default_rng(8)
        shuffle = rng.permutation(tensor.nnz)
        with caplog.at_level(logging.DEBUG, logger="repro.sparse"):
            CooTensor(tensor.indices, tensor.values, tensor.shape)
            CooTensor(tensor.indices[shuffle], tensor.values[shuffle], tensor.shape)
            CooTensor(np.array([[5, 0, 1], [0, 2, 2]]), np.ones(2), (2**22,) * 3)
        assert [record.getMessage() for record in caplog.records] == [
            f"lex_order: {tensor.nnz} rows over extents (40, 36, 30): in-order",
            f"lex_order: {tensor.nnz} rows over extents (40, 36, 30): key-sort",
            "lex_order: 2 rows over extents (4194304, 4194304, 4194304): "
            "lexsort-fallback",
        ]
        assert all(record.name == "repro.sparse" and record.levelno == logging.DEBUG
                   for record in caplog.records)

    def test_silent_and_handlerless_by_default(self, tensor, caplog):
        logger = logging.getLogger("repro.sparse")
        assert logger.handlers == [] and logger.level == logging.NOTSET
        CsfTensor(tensor, (2, 0, 1))
        assert caplog.records == []
