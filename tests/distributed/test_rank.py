"""Tests for the rank-local kernels and the two ways the master drives them.

:class:`~repro.distributed.rank.RankKernels` is the one implementation of a
rank's local MTTKRP, PP-init and PP contribution.  The first half of this
module checks its arithmetic and its cost charges on one rank, against
brute-force oracles, for every MTTKRP engine on dense and sparse blocks.  The
second half checks that a :class:`~repro.distributed.runtime.RemoteRank`
(the same kernels inside a process worker) returns the same bits and charges
the same flops as a simulated rank given the same commands.
"""

import numpy as np
import pytest

from repro.comm.procs import ProcessMachine, leaked_segments
from repro.core.initialization import init_factors
from repro.core.normal_equations import gram_matrix
from repro.core.options import ParallelOptions
from repro.core.parallel_common import setup_parallel_state
from repro.core.pp_corrections import delta_gram, second_order_accumulator
from repro.data import sparse_low_rank_tensor
from repro.distributed.rank import RankKernels
from repro.machine.cost_tracker import CostTracker
from repro.sparse import CooTensor
from repro.tensor.cp_format import random_cp_tensor
from repro.trees.registry import available_providers, make_provider

ENGINES = tuple(available_providers())
KINDS = ("dense", "sparse")
RANK = 3
SHAPE = (8, 7, 6)


def _as_kind(dense: np.ndarray, kind: str):
    return dense if kind == "dense" else CooTensor.from_dense(dense)


def _dense(tensor) -> np.ndarray:
    return tensor if isinstance(tensor, np.ndarray) else tensor.to_dense()


@pytest.fixture(scope="module")
def noisy_tensor() -> np.ndarray:
    """A general (not low-rank) order-3 tensor, ~half its entries zero."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal(SHAPE)
    values[rng.random(SHAPE) < 0.5] = 0.0
    return values


@pytest.fixture(scope="module")
def cp_model():
    """An exact rank-``RANK`` order-3 CP tensor and its factors."""
    model = random_cp_tensor(SHAPE, rank=RANK, seed=11)
    return model.full(), [np.array(f) for f in model.factors]


def _kernels(engine: str, tensor, factors) -> RankKernels:
    return RankKernels(make_provider(engine, tensor, [f.copy() for f in factors],
                                     tracker=CostTracker()))


def _steps(factors, scale: float, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [scale * rng.standard_normal(f.shape) for f in factors]


def _others_flops(kernels: RankKernels) -> int:
    return kernels.tracker.flops_by_category.get("others", 0)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", KINDS)
class TestRankKernels:
    def test_mttkrp_matches_oracle(self, mttkrp_oracle, noisy_tensor, engine, kind):
        factors = init_factors(SHAPE, RANK, seed=1)
        kernels = _kernels(engine, _as_kind(noisy_tensor, kind), factors)
        for mode in range(3):
            np.testing.assert_allclose(kernels.mttkrp(mode),
                                       mttkrp_oracle(noisy_tensor, factors, mode),
                                       rtol=1e-12, atol=1e-12)

    def test_pp_contrib_at_the_checkpoint_is_the_exact_mttkrp(self, mttkrp_oracle, noisy_tensor,
                                                               engine, kind):
        """With no step taken and no accumulator, only ``M_p`` is left."""
        factors = init_factors(SHAPE, RANK, seed=2)
        kernels = _kernels(engine, _as_kind(noisy_tensor, kind), factors)
        kernels.pp_build()
        zero = np.zeros((RANK, RANK))
        for mode in range(3):
            np.testing.assert_allclose(kernels.pp_contrib(mode, zero, 1),
                                       mttkrp_oracle(noisy_tensor, factors, mode),
                                       rtol=1e-12, atol=1e-12)

    def test_pp_contrib_is_exact_on_a_cp_tensor(self, mttkrp_oracle, cp_model, engine, kind):
        """On ``T = [[A]]`` checkpointed at ``A``, Eq. (5) has no truncation error.

        For an order-3 tensor the MTTKRP at ``A + dA`` is ``M_p`` plus the
        two first-order terms plus one second-order term, and the
        second-order term of a CP tensor is exactly ``A^(n)`` times the
        accumulator of Eq. (7) built from ``S = A^T A`` and ``dS = A^T dA``.
        """
        full, model_factors = cp_model
        for mode in range(3):
            kernels = _kernels(engine, _as_kind(full, kind), model_factors)
            kernels.pp_build()
            steps = _steps(model_factors, 0.1, seed=mode)
            moved = [f + d for f, d in zip(model_factors, steps)]
            for other in range(3):
                if other != mode:
                    kernels.set_factor(other, moved[other])
            grams = [gram_matrix(f) for f in model_factors]
            delta_grams = [delta_gram(f, d) for f, d in zip(model_factors, steps)]
            accumulator, _ = second_order_accumulator(mode, grams, delta_grams)
            exact_at = [model_factors[m] if m == mode else moved[m] for m in range(3)]
            np.testing.assert_allclose(kernels.pp_contrib(mode, accumulator, 1),
                                       mttkrp_oracle(full, exact_at, mode),
                                       rtol=1e-10, atol=1e-10)

    def test_accumulator_share_is_split_over_the_group(self, noisy_tensor, engine, kind):
        factors = init_factors(SHAPE, RANK, seed=4)
        kernels = _kernels(engine, _as_kind(noisy_tensor, kind), factors)
        kernels.pp_build()
        for mode, step in enumerate(_steps(factors, 0.05, seed=5)):
            kernels.set_factor(mode, factors[mode] + step)
        accumulator = np.random.default_rng(6).standard_normal((RANK, RANK))
        zero = np.zeros((RANK, RANK))
        for mode in range(3):
            first_order = kernels.pp_contrib(mode, zero, 1)
            block = kernels.provider.factors[mode]
            for group_size in (1, 2, 4):
                np.testing.assert_allclose(
                    kernels.pp_contrib(mode, accumulator, group_size) - first_order,
                    block @ accumulator / group_size, rtol=1e-12, atol=1e-12)

    def test_pp_contrib_charges_the_correction_share(self, noisy_tensor, engine, kind):
        """``2 * rows * R^2 / group_size`` flops on top of the first-order terms."""
        factors = init_factors(SHAPE, RANK, seed=7)
        kernels = _kernels(engine, _as_kind(noisy_tensor, kind), factors)
        kernels.pp_build()
        accumulator = np.ones((RANK, RANK))
        for mode in range(3):
            charged = {}
            for group_size in (1, 3):
                before = _others_flops(kernels)
                kernels.pp_contrib(mode, accumulator, group_size)
                charged[group_size] = _others_flops(kernels) - before
            rows = SHAPE[mode]
            assert charged[1] - charged[3] == (2 * rows * RANK * RANK
                                               - 2 * rows * RANK * RANK // 3)

    def test_run_dispatches_the_worker_tags(self, noisy_tensor, engine, kind):
        """``run`` takes the command tuples a process worker receives."""
        factors = init_factors(SHAPE, RANK, seed=8)
        tensor = _as_kind(noisy_tensor, kind)
        by_run = _kernels(engine, tensor, factors)
        direct = _kernels(engine, tensor, factors)
        accumulator = np.full((RANK, RANK), 0.5)
        for mode in range(3):
            assert np.array_equal(by_run.run(("mttkrp", mode)), direct.mttkrp(mode))
        assert by_run.run(("pp_build",)) is None
        direct.pp_build()
        for mode in range(3):
            assert np.array_equal(by_run.run(("pp_contrib", mode, accumulator, 2)),
                                  direct.pp_contrib(mode, accumulator, 2))


@pytest.mark.parametrize("engine", ENGINES)
class TestRankKernelsState:
    def test_pp_contrib_before_pp_build_raises(self, noisy_tensor, engine):
        kernels = _kernels(engine, noisy_tensor, init_factors(SHAPE, RANK, seed=9))
        with pytest.raises(RuntimeError, match="pp_build"):
            kernels.pp_contrib(0, np.zeros((RANK, RANK)), 1)

    def test_checkpoint_is_a_copy(self, noisy_tensor, engine):
        factors = init_factors(SHAPE, RANK, seed=10)
        kernels = _kernels(engine, noisy_tensor, factors)
        kernels.pp_build()
        kernels.set_factor(1, factors[1] + 1.0)
        for saved, original in zip(kernels.checkpoint, factors):
            assert np.array_equal(saved, original)


class TestLocalSubmitCollect:
    def test_submit_computes_and_collect_hands_over_once(self, mttkrp_oracle, noisy_tensor):
        factors = init_factors(SHAPE, RANK, seed=12)
        kernels = _kernels("dt", noisy_tensor, factors)
        kernels.submit("mttkrp", 1)
        np.testing.assert_allclose(kernels.collect(),
                                   mttkrp_oracle(noisy_tensor, factors, 1),
                                   rtol=1e-12, atol=1e-12)
        assert kernels.collect() is None

    def test_tracker_is_the_providers(self, noisy_tensor):
        tracker = CostTracker()
        kernels = RankKernels(make_provider("msdt", noisy_tensor,
                                            init_factors(SHAPE, RANK, seed=13),
                                            tracker=tracker))
        assert kernels.tracker is tracker
        kernels.mttkrp(0)
        assert tracker.total_flops > 0


# -- the same commands on a simulated rank and on a process worker ----------------
GRID = (1, 2, 2)


@pytest.fixture(scope="module")
def machine4():
    machine = ProcessMachine(4)
    yield machine
    machine.close()
    assert leaked_segments() == []


@pytest.fixture(scope="module")
def grid_tensors(noisy_tensor):
    sparse = sparse_low_rank_tensor((14, 12, 10), rank=RANK, density=0.3,
                                    noise=0.05, seed=7)
    return {"dense": noisy_tensor, "sparse": sparse}


def _drive(state, seed: int) -> list:
    """Every kernel command on every rank, with a factor move in between.

    Returns the per-rank results in call order plus the flops each rank was
    charged meanwhile, so two substrates can be compared entry by entry.
    """
    def on_all(*command):
        for proc in state.grid.ranks():
            state.ranks[proc].submit(*command)
        return [state.ranks[proc].collect() for proc in state.grid.ranks()]

    trackers = [state.machine.tracker(proc) for proc in state.grid.ranks()]
    before = [tracker.snapshot() for tracker in trackers]
    results = [on_all("mttkrp", mode) for mode in range(state.order)]
    on_all("pp_build")
    rng = np.random.default_rng(seed)
    for mode, df in enumerate(state.dist_factors):
        for block_index in range(state.grid.dims[mode]):
            block = df.block(block_index)
            df.set_block(block_index, block + 0.05 * rng.standard_normal(block.shape))
        for proc in state.grid.ranks():
            state.ranks[proc].set_factor(mode, df.local_block_for(proc))
    accumulator = rng.standard_normal((state.rank, state.rank))
    for mode in range(state.order):
        group_size = len(state.grid.slice_groups(mode)[0])
        results.append(on_all("pp_contrib", mode, accumulator, group_size))
    results.append(on_all("mttkrp", 0))
    flops = [tracker.diff_since(start).flops_by_category
             for tracker, start in zip(trackers, before)]
    return results, flops


class TestAcrossSubstrates:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_remote_rank_matches_simulated_rank(self, mttkrp_oracle, grid_tensors, machine4,
                                                engine, kind):
        tensor = grid_tensors[kind]
        options = ParallelOptions(rank=RANK, grid=GRID, mttkrp=engine, seed=0)
        initial = init_factors(tensor.shape, RANK, seed=14)
        outcomes = []
        for machine in (None, machine4):
            state = setup_parallel_state(tensor, options, machine=machine,
                                         initial_factors=initial)
            try:
                outcomes.append(_drive(state, seed=15))
            finally:
                state.close()
        (sim_results, sim_flops), (proc_results, proc_flops) = outcomes
        for sim_call, proc_call in zip(sim_results, proc_results, strict=True):
            for sim_rank, proc_rank in zip(sim_call, proc_call, strict=True):
                assert np.array_equal(sim_rank, proc_rank)
        assert proc_flops == sim_flops
        # the first command's per-rank outputs sum to the global MTTKRP's rows
        np.testing.assert_allclose(
            sum(block.sum() for block in sim_results[0]),
            mttkrp_oracle(_dense(tensor), initial, 0).sum(),
            rtol=1e-10)

    def test_second_submit_before_collect_raises(self, grid_tensors, machine4):
        options = ParallelOptions(rank=RANK, grid=GRID, mttkrp="dt", seed=0)
        state = setup_parallel_state(grid_tensors["sparse"], options, machine=machine4)
        try:
            remote = state.ranks[0]
            remote.submit("mttkrp", 0)
            with pytest.raises(RuntimeError, match="pending 'mttkrp'"):
                remote.submit("mttkrp", 1)
            assert remote.collect().shape[1] == RANK
        finally:
            state.close()

    def test_collect_without_submit_raises(self, grid_tensors, machine4):
        options = ParallelOptions(rank=RANK, grid=GRID, mttkrp="dt", seed=0)
        state = setup_parallel_state(grid_tensors["sparse"], options, machine=machine4)
        try:
            with pytest.raises(RuntimeError, match="no pending call"):
                state.ranks[1].collect()
        finally:
            state.close()
