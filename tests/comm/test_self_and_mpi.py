"""Tests for the single-rank simulated machine."""

import numpy as np

from repro.comm.simulated import SimulatedMachine


class TestSingleRankMachine:
    def test_single_rank(self):
        machine = SimulatedMachine(1)
        assert machine.n_ranks == 1

    def test_collectives_are_identity(self, rng):
        machine = SimulatedMachine(1)
        value = rng.random((3, 2))
        assert np.allclose(machine.all_reduce({0: value}, [0])[0], value)
        assert np.allclose(machine.all_gather_rows({0: value}, [0])[0], value)
        assert np.allclose(machine.reduce_scatter_rows({0: value}, [0])[0], value)

    def test_collectives_cost_nothing(self, rng):
        machine = SimulatedMachine(1)
        machine.all_reduce({0: rng.random((5, 5))}, [0])
        assert machine.tracker(0).horizontal_words == 0
        assert machine.tracker(0).messages == 0

