"""Tests for the simulated BSP machine and its collectives."""

import numpy as np
import pytest

from repro.comm.simulated import SimulatedMachine
from repro.machine.params import MachineParams


@pytest.fixture
def machine() -> SimulatedMachine:
    return SimulatedMachine(4, params=MachineParams.communication_only())


class TestAllReduce:
    def test_sums_contributions(self, machine, rng):
        contribs = {r: rng.random((3, 2)) for r in range(4)}
        result = machine.all_reduce(contribs, [0, 1, 2, 3])
        expected = sum(contribs.values())
        for r in range(4):
            assert np.allclose(result[r], expected)

    def test_subgroup_only_sums_members(self, machine, rng):
        contribs = {r: np.full((2, 2), float(r)) for r in range(4)}
        result = machine.all_reduce({0: contribs[0], 2: contribs[2]}, [0, 2])
        assert np.allclose(result[0], contribs[0] + contribs[2])
        assert set(result) == {0, 2}

    def test_charges_cost_to_group_members_only(self, machine, rng):
        contribs = {0: np.ones((4, 4)), 1: np.ones((4, 4))}
        machine.all_reduce(contribs, [0, 1])
        assert machine.tracker(0).horizontal_words == 32  # 2 * n
        assert machine.tracker(0).messages == 2
        assert machine.tracker(2).horizontal_words == 0

    def test_single_rank_group_is_free(self, machine):
        machine.all_reduce({3: np.ones((5,))}, [3])
        assert machine.tracker(3).horizontal_words == 0
        assert machine.tracker(3).messages == 0

    def test_shape_mismatch_raises(self, machine):
        with pytest.raises(ValueError):
            machine.all_reduce({0: np.ones((2, 2)), 1: np.ones((3, 3))}, [0, 1])

    def test_missing_contribution_raises(self, machine):
        with pytest.raises(ValueError):
            machine.all_reduce({0: np.ones(2)}, [0, 1])

    def test_duplicate_ranks_raise(self, machine):
        with pytest.raises(ValueError):
            machine.all_reduce({0: np.ones(2)}, [0, 0])

    def test_empty_group_raises(self, machine):
        with pytest.raises(ValueError):
            machine.all_reduce({}, [])


class TestAllGatherRows:
    def test_concatenates_in_group_order(self, machine):
        contribs = {r: np.full((2, 3), float(r)) for r in range(4)}
        result = machine.all_gather_rows(contribs, [2, 0, 1])
        expected = np.concatenate([contribs[2], contribs[0], contribs[1]], axis=0)
        for r in (0, 1, 2):
            assert np.array_equal(result[r], expected)

    def test_row_counts_may_differ(self, machine):
        contribs = {0: np.ones((1, 2)), 1: np.ones((3, 2))}
        result = machine.all_gather_rows(contribs, [0, 1])
        assert result[0].shape == (4, 2)

    def test_trailing_dim_mismatch_raises(self, machine):
        with pytest.raises(ValueError):
            machine.all_gather_rows({0: np.ones((1, 2)), 1: np.ones((1, 3))}, [0, 1])

    def test_charges_output_volume(self, machine):
        contribs = {0: np.ones((2, 5)), 1: np.ones((2, 5))}
        machine.all_gather_rows(contribs, [0, 1])
        assert machine.tracker(0).horizontal_words == 20


class TestReduceScatterRows:
    def test_even_split_sums_and_partitions(self, machine):
        contribs = {r: np.full((4, 2), float(r + 1)) for r in range(4)}
        result = machine.reduce_scatter_rows(contribs, [0, 1, 2, 3])
        total = sum(contribs.values())
        reassembled = np.concatenate([result[r] for r in range(4)], axis=0)
        assert np.allclose(reassembled, total)
        assert result[0].shape == (1, 2)

    def test_reduce_scatter_then_gather_equals_allreduce(self, machine, rng):
        contribs = {r: rng.random((6, 3)) for r in range(3)}
        group = [0, 1, 2]
        scattered = machine.reduce_scatter_rows(contribs, group)
        gathered = machine.all_gather_rows(scattered, group)
        reduced = machine.all_reduce(contribs, group)
        assert np.allclose(gathered[0], reduced[0])


COLLECTIVES = ["all_reduce", "all_gather_rows", "reduce_scatter_rows"]


class TestGroupCheck:
    """Every collective validates its group the same way before it moves
    data or charges any cost."""

    @pytest.mark.parametrize("collective", COLLECTIVES)
    @pytest.mark.parametrize("contribs, group, message", [
        ({}, [], "non-empty"),
        ({0: np.ones((2, 2))}, [0, 0], "duplicate"),
        ({0: np.ones((2, 2))}, [0, 1], "missing contributions"),
    ], ids=["empty", "duplicate", "missing"])
    def test_bad_group_raises_and_charges_nothing(self, machine, collective,
                                                  contribs, group, message):
        with pytest.raises(ValueError, match=message):
            getattr(machine, collective)(contribs, group)
        assert all(machine.tracker(r).messages == 0 for r in range(4))
        assert all(machine.tracker(r).horizontal_words == 0 for r in range(4))

    @pytest.mark.parametrize("collective", COLLECTIVES)
    def test_results_and_costs_only_for_group_members(self, machine, collective):
        """Contributions of ranks outside the group are ignored, and only the
        members get a result and a charge."""
        contribs = {r: np.full((4, 2), float(r + 1)) for r in range(4)}
        result = getattr(machine, collective)(contribs, [3, 1])
        assert set(result) == {1, 3}
        assert machine.tracker(1).messages > 0 and machine.tracker(3).messages > 0
        assert machine.tracker(0).messages == machine.tracker(2).messages == 0
        if collective == "all_gather_rows":
            expected = np.concatenate([contribs[3], contribs[1]])
            assert np.array_equal(result[1], expected)
        else:
            expected = contribs[3] + contribs[1]
            if collective == "reduce_scatter_rows":
                result = {1: np.concatenate([result[3], result[1]])}
            assert np.array_equal(result[1], expected)


class TestBookkeeping:
    def test_tracker_out_of_range_raises(self, machine):
        with pytest.raises(ValueError):
            machine.tracker(99)

    def test_costs_since_snapshot(self, machine):
        snaps = machine.snapshot_costs()
        machine.all_reduce({0: np.ones(4), 1: np.ones(4)}, [0, 1])
        deltas = machine.costs_since(snaps)
        assert deltas[0].horizontal_words > 0
        assert deltas[2].horizontal_words == 0

    def test_critical_path_and_modeled_time(self):
        machine = SimulatedMachine(2, params=MachineParams.communication_only())
        machine.tracker(0).add_flops("ttm", 100)
        machine.tracker(1).add_flops("ttm", 300)
        critical = machine.critical_path_tracker()
        assert critical.flops_by_category["ttm"] == 300
        assert machine.modeled_time() >= 0.0

    def test_invalid_rank_count_raises(self):
        with pytest.raises(ValueError):
            SimulatedMachine(0)
