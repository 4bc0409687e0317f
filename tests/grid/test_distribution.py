"""Tests for the padded block distribution helpers."""

import pytest

from repro.grid.distribution import padded_block_size, split_rows_evenly


class TestPaddedBlockSize:
    @pytest.mark.parametrize("extent,blocks,expected", [
        (10, 2, 5), (10, 3, 4), (10, 4, 3), (7, 7, 1), (5, 8, 1),
    ])
    def test_values(self, extent, blocks, expected):
        assert padded_block_size(extent, blocks) == expected

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            padded_block_size(0, 2)
        with pytest.raises(ValueError):
            padded_block_size(4, 0)


class TestSplitRowsEvenly:
    def test_ranges_cover_all_rows(self):
        ranges = split_rows_evenly(10, 3)
        assert ranges[0] == (0, 4)
        assert ranges[-1][1] == 10
        total = sum(stop - start for start, stop in ranges)
        assert total == 10

    def test_more_parts_than_rows(self):
        ranges = split_rows_evenly(2, 4)
        sizes = [stop - start for start, stop in ranges]
        assert sizes == [1, 1, 0, 0]

    def test_zero_rows(self):
        assert split_rows_evenly(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            split_rows_evenly(-1, 2)
        with pytest.raises(ValueError):
            split_rows_evenly(5, 0)
