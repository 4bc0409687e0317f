"""Tests for the single-rank simulated machine and the mpi4py-style adapter."""

import numpy as np
import pytest

from repro.comm.mpi_adapter import MPICollectives
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
        assert np.allclose(machine.broadcast(value, [0], root=0)[0], value)

    def test_collectives_cost_nothing(self, rng):
        machine = SimulatedMachine(1)
        machine.all_reduce({0: rng.random((5, 5))}, [0])
        assert machine.tracker(0).horizontal_words == 0
        assert machine.tracker(0).messages == 0


class _FakeComm:
    """Minimal in-memory stand-in for an mpi4py communicator (single process)."""

    def __init__(self, rank: int = 0, size: int = 1):
        self._rank = rank
        self._size = size

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._size

    def allreduce(self, value):
        return value * self._size

    def allgather(self, value):
        return [value for _ in range(self._size)]

    def bcast(self, value, root=0):
        return value


class TestMPICollectives:
    def test_requires_mpi_like_interface(self):
        with pytest.raises(TypeError):
            MPICollectives(object())

    def test_rank_and_size(self):
        comm = MPICollectives(_FakeComm(rank=0, size=3))
        assert comm.rank == 0
        assert comm.size == 3

    def test_all_reduce(self, rng):
        comm = MPICollectives(_FakeComm(size=2))
        value = rng.random((2, 2))
        assert np.allclose(comm.all_reduce(value), 2 * value)

    def test_all_gather_rows(self, rng):
        comm = MPICollectives(_FakeComm(size=3))
        block = rng.random((2, 4))
        gathered = comm.all_gather_rows(block)
        assert gathered.shape == (6, 4)
        assert np.allclose(gathered[:2], block)

    def test_reduce_scatter_rows(self, rng):
        comm = MPICollectives(_FakeComm(rank=0, size=2))
        block = rng.random((4, 3))
        out = comm.reduce_scatter_rows(block, [(0, 2), (2, 4)])
        assert out.shape == (2, 3)
        assert np.allclose(out, 2 * block[:2])

    def test_reduce_scatter_rows_wrong_ranges_raise(self, rng):
        comm = MPICollectives(_FakeComm(size=2))
        with pytest.raises(ValueError):
            comm.reduce_scatter_rows(rng.random((4, 2)), [(0, 2)])

    def test_reduce_scatter_rows_invalid_range_raises(self, rng):
        comm = MPICollectives(_FakeComm(size=1))
        with pytest.raises(ValueError):
            comm.reduce_scatter_rows(rng.random((2, 2)), [(0, 5)])

    def test_broadcast(self, rng):
        comm = MPICollectives(_FakeComm())
        value = rng.random(5)
        assert np.allclose(comm.broadcast(value), value)
