"""Tests for the Section II-E collective cost formulas."""

import math

import pytest

from repro.machine.collective_costs import (
    all_gather_cost,
    all_reduce_cost,
    als_sweep_collective_cost,
    reduce_scatter_cost,
)


class TestCollectiveCosts:
    @pytest.mark.parametrize("func", [all_gather_cost, reduce_scatter_cost])
    def test_single_process_is_free(self, func):
        messages, words = func(1000, 1)
        assert messages == 0
        assert words == 0

    def test_all_reduce_single_process_is_free(self):
        assert all_reduce_cost(1000, 1) == (0.0, 0.0)

    @pytest.mark.parametrize("n_procs", [2, 4, 8, 16, 64])
    def test_all_gather_scaling(self, n_procs):
        messages, words = all_gather_cost(500, n_procs)
        assert messages == math.ceil(math.log2(n_procs))
        assert words == 500

    def test_all_reduce_is_double_of_reduce_scatter(self):
        rs = reduce_scatter_cost(300, 8)
        ar = all_reduce_cost(300, 8)
        assert ar[0] == 2 * rs[0]
        assert ar[1] == 2 * rs[1]

    def test_non_power_of_two_rounds_message_count_up(self):
        messages, _ = all_gather_cost(10, 6)
        assert messages == 3  # ceil(log2(6))

    def test_negative_words_raise(self):
        with pytest.raises(ValueError):
            all_gather_cost(-1, 4)

    def test_zero_procs_raise(self):
        with pytest.raises(ValueError):
            reduce_scatter_cost(10, 0)


class TestAlsSweepCollectiveCost:
    def test_matches_manual_composition(self):
        rank = 4
        shape, dims = (8, 8), (2, 2)
        messages, words = als_sweep_collective_cost(shape, dims, rank)
        expect_m = expect_w = 0.0
        for s, d in zip(shape, dims):
            group = 4 // d
            for m, w in (reduce_scatter_cost(4 * rank, group),
                         all_gather_cost(4 * rank, group),
                         all_reduce_cost(rank * rank, 4)):
                expect_m += m
                expect_w += w
        assert (messages, words) == (expect_m, expect_w)

    def test_payloads_follow_block_rows_not_volume(self):
        # words are additive over per-mode factor rows; a volume-proportional
        # payload (the dense block) would grow multiplicatively instead
        w = {s: als_sweep_collective_cost(s, (2, 2), 8)[1]
             for s in [(16, 16), (32, 16), (16, 32), (32, 32)]}
        assert (w[(32, 32)] - w[(16, 16)]
                == (w[(32, 16)] - w[(16, 16)]) + (w[(16, 32)] - w[(16, 16)]))
        # padded rows of a skewed partition are charged through block_rows
        base = als_sweep_collective_cost((16, 16), (2, 2), 8)
        skewed = als_sweep_collective_cost((16, 16), (2, 2), 8, block_rows=(12, 8))
        assert skewed[1] > base[1]

    def test_single_rank_grid_is_free(self):
        messages, words = als_sweep_collective_cost((8, 8, 8), (1, 1, 1), 16)
        assert messages == 0.0 and words == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            als_sweep_collective_cost((8, 8), (2,), 4)
        with pytest.raises(ValueError):
            als_sweep_collective_cost((8, 8), (2, 2), 0)
        with pytest.raises(ValueError):
            als_sweep_collective_cost((8, 8), (2, 2), 4, block_rows=(4,))
