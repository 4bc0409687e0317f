"""Tests for the logical processor grid."""

import pytest

from repro.grid.processor_grid import ProcessorGrid


class TestBasics:
    def test_size_and_order(self):
        grid = ProcessorGrid((2, 3, 4))
        assert grid.size == 24
        assert grid.order == 3
        assert grid.dims == (2, 3, 4)

    def test_equality_and_hash(self):
        assert ProcessorGrid((2, 2)) == ProcessorGrid((2, 2))
        assert ProcessorGrid((2, 2)) != ProcessorGrid((4, 1))
        assert hash(ProcessorGrid((2, 2))) == hash(ProcessorGrid((2, 2)))

    def test_empty_dims_raise(self):
        with pytest.raises(ValueError):
            ProcessorGrid(())

    def test_nonpositive_dim_raises(self):
        with pytest.raises(ValueError):
            ProcessorGrid((2, 0, 3))


class TestCoordinates:
    def test_roundtrip_all_ranks(self):
        grid = ProcessorGrid((2, 3, 2))
        for rank in grid.ranks():
            assert grid.rank(grid.coordinate(rank)) == rank

    def test_c_order_numbering(self):
        grid = ProcessorGrid((2, 3))
        assert grid.coordinate(0) == (0, 0)
        assert grid.coordinate(1) == (0, 1)
        assert grid.coordinate(3) == (1, 0)

    def test_coordinates_iterator_matches(self):
        grid = ProcessorGrid((2, 2))
        assert list(grid.coordinates()) == [grid.coordinate(r) for r in range(4)]

    def test_out_of_range_rank_raises(self):
        with pytest.raises(ValueError):
            ProcessorGrid((2, 2)).coordinate(4)

    def test_bad_coordinate_raises(self):
        grid = ProcessorGrid((2, 2))
        with pytest.raises(ValueError):
            grid.rank((2, 0))
        with pytest.raises(ValueError):
            grid.rank((0,))


class TestGroups:
    def test_slice_groups_partition_all_ranks(self):
        grid = ProcessorGrid((2, 3, 2))
        for mode in range(3):
            groups = grid.slice_groups(mode)
            assert len(groups) == grid.dims[mode]
            flattened = sorted(r for g in groups for r in g)
            assert flattened == list(range(grid.size))

    def test_slice_group_members_share_coordinate(self):
        grid = ProcessorGrid((2, 2, 3))
        for mode in range(3):
            for value, group in enumerate(grid.slice_groups(mode)):
                for rank in group:
                    assert grid.coordinate(rank)[mode] == value

    def test_fiber_groups_vary_single_mode(self):
        grid = ProcessorGrid((2, 3))
        fibers = grid.fiber_groups(1)
        assert len(fibers) == 2
        for fiber in fibers:
            assert len(fiber) == 3
            rows = {grid.coordinate(r)[0] for r in fiber}
            assert len(rows) == 1

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            ProcessorGrid((2, 2)).slice_groups(2)


class TestForTensor:
    def test_total_processors_preserved(self):
        grid = ProcessorGrid.for_tensor((100, 100, 100), 8)
        assert grid.size == 8
        assert grid.order == 3

    def test_assigns_factors_to_largest_modes(self):
        grid = ProcessorGrid.for_tensor((1000, 10, 10), 4)
        assert grid.dims[0] == 4

    def test_single_processor(self):
        assert ProcessorGrid.for_tensor((5, 5), 1).dims == (1, 1)

    def test_prime_processor_count(self):
        grid = ProcessorGrid.for_tensor((50, 60, 70), 7)
        assert grid.size == 7
