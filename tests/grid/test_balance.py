"""Unit tests for the mode partitioners of repro.grid.balance."""

import inspect

import numpy as np
import pytest

from repro.core.options import ParallelOptions
from repro.distributed import DistSparseTensor
from repro.grid import ProcessorGrid
from repro.grid.balance import (
    ModePartition,
    TensorPartition,
    available_partitioners,
    joint_partition,
    make_partition,
    nnz_balanced_boundaries,
    nnz_balanced_partition,
    uniform_partition,
)
from repro.sparse import CooTensor


def _coo(indices, shape):
    indices = np.asarray(indices, dtype=np.int64)
    return CooTensor(indices, np.ones(indices.shape[0]), shape)


class TestModePartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="extent"):
            ModePartition(0, [0, 0])
        with pytest.raises(ValueError, match="start at 0"):
            ModePartition(4, [1, 4])
        with pytest.raises(ValueError, match="non-decreasing"):
            ModePartition(4, [0, 3, 2, 4])

    def test_empty_blocks_allowed(self):
        part = ModePartition(3, [0, 3, 3])
        assert part.widths().tolist() == [3, 0]
        assert part.block_of([0, 1, 2]).tolist() == [0, 0, 0]
        assert part.global_rows_of_block(1).size == 0

    def test_blocks_are_contiguous_index_ranges(self):
        part = ModePartition(7, [0, 2, 2, 7])
        assert part.block_of(np.arange(7)).tolist() == [0, 0, 2, 2, 2, 2, 2]
        assert part.local_offset(np.arange(7)).tolist() == [0, 1, 0, 1, 2, 3, 4]
        assert [part.global_rows_of_block(b).tolist() for b in range(3)] == \
            [[0, 1], [], [2, 3, 4, 5, 6]]
        assert [part.block_range(b) for b in range(3)] == [(0, 2), (2, 2), (2, 7)]


    @pytest.mark.parametrize("boundaries", [[0, 5], [0, 1, 5], [0, 0, 2, 5],
                                            [0, 2, 4, 5, 5]])
    def test_local_offset_is_the_index_minus_its_block_start(self, boundaries):
        part = ModePartition(5, boundaries)
        idx = np.arange(5)
        blocks = part.block_of(idx)
        starts = np.array([part.block_range(b)[0] for b in blocks])
        assert np.array_equal(part.local_offset(idx), idx - starts)
        assert (part.local_offset(idx) < part.widths()[blocks]).all()


class TestPartitioners:
    def test_nnz_balanced_splits_heavy_head(self):
        counts = np.array([100, 1, 1, 1, 1, 1])
        bounds = nnz_balanced_boundaries(counts, 2)
        assert bounds.tolist() == [0, 1, 6]
        part = nnz_balanced_partition(counts, 2)
        assert part.widths().tolist() == [1, 5]

    def test_nnz_balanced_uniform_counts_stay_uniform(self):
        bounds = nnz_balanced_boundaries(np.full(8, 5), 4)
        assert bounds.tolist() == [0, 2, 4, 6, 8]

    def test_nnz_balanced_all_zero_counts(self):
        bounds = nnz_balanced_boundaries(np.zeros(6, dtype=int), 3)
        assert bounds[0] == 0 and bounds[-1] == 6
        assert (np.diff(bounds) >= 0).all()

    def test_nnz_balanced_more_blocks_than_slices(self):
        part = nnz_balanced_partition(np.array([3, 3]), 4)
        assert part.n_blocks == 4
        assert int(part.widths().sum()) == 2


class TestTensorPartition:
    def test_build_and_rank_of(self):
        coo = _coo([[0, 0], [3, 1], [1, 1]], (4, 2))  # canonicalized to sorted order
        part = make_partition("uniform", coo, ProcessorGrid((2, 2)))
        assert part.rank_of(coo.indices).tolist() == [0, 1, 3]
        assert part.padded_extents == (2, 1)

    def test_grid_mode_mismatch(self):
        coo = _coo([[0, 0]], (4, 2))
        with pytest.raises(ValueError, match="order"):
            make_partition("uniform", coo, ProcessorGrid((2, 2, 2)))

    def test_unknown_partitioner(self):
        coo = _coo([[0, 0]], (4, 2))
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partition("bogus", coo, ProcessorGrid((2, 2)))

    @pytest.mark.parametrize("kind", ["nnz", "balanced", "hash", "bisection",
                                      "Uniform", " nnz-balanced"])
    def test_only_canonical_names(self, kind):
        # the deleted aliases and the case/space folding are refused, and the
        # error lists the names that are accepted
        coo = _coo([[0, 0]], (4, 2))
        with pytest.raises(ValueError, match="unknown partitioner") as info:
            make_partition(kind, coo, ProcessorGrid((2, 2)))
        assert str(available_partitioners()) in str(info.value)

    def test_available_names_all_build(self):
        coo = _coo([[0, 0], [3, 1], [1, 1]], (4, 2))
        assert available_partitioners() == ["uniform", "nnz-balanced", "joint"]
        for kind in available_partitioners():
            make_partition(kind, coo, ProcessorGrid((2, 2)))

    def test_block_count_must_match_grid(self):
        part = uniform_partition(4, 3)
        with pytest.raises(ValueError, match="blocks"):
            TensorPartition(ProcessorGrid((2, 2)), [part, uniform_partition(2, 2)])

    @pytest.mark.parametrize("kind", available_partitioners())
    def test_report_counts_every_nonzero_once(self, kind):
        rng = np.random.default_rng(0)
        idx = np.column_stack(
            np.unravel_index(rng.choice(6 * 7 * 8, size=60, replace=False), (6, 7, 8))
        )
        coo = _coo(idx, (6, 7, 8))
        grid = ProcessorGrid((2, 3, 2))
        report = make_partition(kind, coo, grid).report(coo)
        assert int(report.per_rank_nnz.sum()) == coo.nnz
        assert report.per_rank_nnz.shape == (grid.size,)
        assert report.imbalance >= 1.0
        assert report.partitioner == ("nnz-balanced" if kind == "nnz-balanced" else kind)
        assert "imbalance" in report.summary()

    @pytest.mark.parametrize("kind", available_partitioners())
    def test_assign_matches_rank_of_and_local_indices(self, kind):
        rng = np.random.default_rng(5)
        idx = np.column_stack(
            np.unravel_index(rng.choice(9 * 8 * 7, size=80, replace=False), (9, 8, 7))
        )
        coo = _coo(idx, (9, 8, 7))
        part = make_partition(kind, coo, ProcessorGrid((2, 2, 2)))
        ranks, local = part.assign(coo.indices)
        np.testing.assert_array_equal(ranks, part.rank_of(coo.indices))
        np.testing.assert_array_equal(local, part.local_indices(coo.indices))

    @pytest.mark.parametrize("dims", [(2, 3, 2), (1, 2, 2), (4, 1, 1), (3, 3, 3)])
    @pytest.mark.parametrize("kind", available_partitioners())
    def test_block_slices_tile_the_tensor(self, kind, dims):
        """Each rank's block is one box of contiguous index ranges; the boxes
        tile the tensor, and every nonzero sits in its rank's box at its
        local offset."""
        rng = np.random.default_rng(3)
        shape = (9, 8, 7)
        idx = np.column_stack(
            np.unravel_index(rng.choice(9 * 8 * 7, size=90, replace=False), shape)
        )
        coo = _coo(idx, shape)
        grid = ProcessorGrid(dims)
        part = make_partition(kind, coo, grid)
        cover = np.zeros(shape, dtype=np.int64)
        for rank in grid.ranks():
            cover[part.block_slices(rank)] += 1
        assert (cover == 1).all()
        ranks, local = part.assign(coo.indices)
        for row, rank, offsets in zip(coo.indices, ranks, local):
            slices = part.block_slices(rank)
            assert all(s.start <= i < s.stop for s, i in zip(slices, row))
            assert offsets.tolist() == [i - s.start for s, i in zip(slices, row)]

    def test_report_comparison_does_not_raise(self):
        """Regression: the generated dataclass __eq__ choked on the ndarray field."""
        coo = _coo([[0, 0], [1, 1], [3, 0]], (4, 2))
        grid = ProcessorGrid((2, 1))
        a = make_partition("uniform", coo, grid).report(coo)
        b = make_partition("uniform", coo, grid).report(coo)
        assert isinstance(a == b, bool)

    def test_empty_tensor_report(self):
        coo = CooTensor(np.zeros((0, 2), dtype=np.int64), np.zeros(0), (3, 3))
        report = make_partition("nnz-balanced", coo, ProcessorGrid((2, 1))).report(coo)
        assert report.total_nnz == 0
        assert report.imbalance == 1.0
        assert report.empty_ranks == 2


class TestOneLayout:
    """Contiguous blocks are the only layout: no partitioner permutes slices,
    and nothing takes a slice permutation or a partition seed."""

    def test_registry(self):
        assert available_partitioners() == ["uniform", "nnz-balanced", "joint"]

    @pytest.mark.parametrize("kind", ["random", "cyclic"])
    def test_options_refuse_the_permuting_partitioners(self, kind):
        with pytest.raises(ValueError, match="unknown partitioner") as info:
            ParallelOptions(rank=2, partitioner=kind)
        assert str(["uniform", "nnz-balanced", "joint"]) in str(info.value)

    @pytest.mark.parametrize("builder", [make_partition, joint_partition,
                                         DistSparseTensor.from_coo])
    def test_builders_take_no_seed(self, builder):
        assert "seed" not in inspect.signature(builder).parameters

    @pytest.mark.parametrize("package", ["repro.grid", "repro.distributed",
                                         "repro.core", "repro.experiments"])
    def test_no_public_callable_takes_a_partition_seed_or_permutation(
            self, package, public_parameters):
        """Every name a module of ``package`` exports (functions, classes and
        their public methods)."""
        parameters = public_parameters(package)
        takers = [name for name, names in parameters.items()
                  if {"partition_seed", "permutation"} & names]
        assert len({module for module, _ in parameters}) > 3
        assert takers == []
