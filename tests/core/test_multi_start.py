"""Tests of the batched multi-start driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cp_als import cp_als
from repro.core.multi_start import MultiStartResult, multi_start, start_seeds
from repro.core.options import ALSOptions, MaskedOptions, NNOptions, PPOptions
from repro.machine.cost_tracker import CostTracker
from repro.tensor.cp_format import random_cp_tensor

RANK = 3
KWARGS = {"n_sweeps": 6, "tol": 0.0}


@pytest.fixture(scope="module")
def tensor():
    return random_cp_tensor((8, 7, 6), rank=RANK, seed=42).full()


def test_best_of_k_is_deterministic(tensor):
    first = multi_start(tensor, ALSOptions(rank=RANK, seed=0, **KWARGS), n_starts=4)
    second = multi_start(tensor, ALSOptions(rank=RANK, seed=0, **KWARGS), n_starts=4)
    assert first.best_index == second.best_index
    assert first.fitnesses() == second.fitnesses()
    for a, b in zip(first.best.factors, second.best.factors):
        np.testing.assert_array_equal(a, b)


def test_matches_manual_loop_of_single_starts(tensor):
    batched = multi_start(tensor, ALSOptions(rank=RANK, seed=7, **KWARGS), n_starts=3)
    manual = [
        cp_als(tensor, ALSOptions(rank=RANK, seed=np.random.default_rng(seq), **KWARGS))
        for seq in start_seeds(7, 3)
    ]
    assert batched.fitnesses() == [r.fitness for r in manual]
    best_manual = max(range(3), key=lambda k: manual[k].fitness)
    assert batched.best_index == best_manual
    for a, b in zip(batched.best.factors, manual[best_manual].factors):
        np.testing.assert_array_equal(a, b)


def test_thread_pool_matches_sequential(tensor):
    options = ALSOptions(rank=RANK, seed=1, **KWARGS)
    sequential = multi_start(tensor, options, n_starts=4, n_workers=1)
    threaded = multi_start(tensor, options, n_starts=4, n_workers=3)
    assert threaded.best_index == sequential.best_index
    assert threaded.fitnesses() == sequential.fitnesses()
    for a, b in zip(threaded.best.factors, sequential.best.factors):
        np.testing.assert_array_equal(a, b)


def test_best_is_max_fitness(tensor):
    result = multi_start(tensor, ALSOptions(rank=RANK, seed=3, **KWARGS), n_starts=5)
    assert result.fitness == max(result.fitnesses())
    assert result.best is result.results[result.best_index]
    # ties (or the common unique-max case) resolve to the lowest index
    top = [k for k, f in enumerate(result.fitnesses()) if f == result.fitness]
    assert result.best_index == top[0]


def test_trajectory_and_summary_tables(tensor):
    result = multi_start(tensor, ALSOptions(rank=RANK, seed=5, **KWARGS), n_starts=3)
    rows = result.trajectory_table()
    assert len(rows) == sum(len(r.sweeps) for r in result.results)
    assert {row["start"] for row in rows} == {0, 1, 2}
    for row in rows:
        assert set(row) == {
            "start", "sweep", "type", "fitness", "residual", "cumulative_seconds",
        }
    summary = result.summary_table()
    assert len(summary) == 3
    assert sum(1 for row in summary if row["best"]) == 1
    assert summary[result.best_index]["fitness"] == result.fitness


def test_tracker_merge_accumulates_all_starts(tensor):
    tracker = CostTracker()
    multi_start(tensor, ALSOptions(rank=RANK, seed=2, **KWARGS), n_starts=2, tracker=tracker)

    single_tracker = CostTracker()
    for seq in start_seeds(2, 2):
        cp_als(tensor, ALSOptions(rank=RANK, seed=np.random.default_rng(seq), **KWARGS),
               tracker=single_tracker)
    assert tracker.total_flops == single_tracker.total_flops


def test_pp_algorithm_runs(tensor):
    result = multi_start(tensor, PPOptions(rank=RANK, seed=4, n_sweeps=8, tol=0.0),
                         n_starts=2)
    assert isinstance(result, MultiStartResult)
    assert result.algorithm == "pp"
    assert 0.0 < result.fitness <= 1.0


def test_invalid_arguments(tensor):
    with pytest.raises(TypeError):
        multi_start(tensor, 3, n_starts=2)
    with pytest.raises(ValueError):
        multi_start(tensor, ALSOptions(rank=RANK), n_starts=0)
    with pytest.raises(TypeError):
        multi_start(tensor, ALSOptions(rank=RANK, seed=0), n_starts=2, tracker=None,
                    initial_factors=[np.ones((8, 3))])


def test_nan_fitness_never_wins():
    from repro.core.multi_start import _best_index

    class FakeResult:
        def __init__(self, fitness):
            self.fitness = fitness

    nan = float("nan")
    assert _best_index([FakeResult(nan), FakeResult(0.5), FakeResult(0.9)]) == 2
    assert _best_index([FakeResult(0.9), FakeResult(nan)]) == 0
    # all-NaN degenerates to the first start rather than crashing
    assert _best_index([FakeResult(nan), FakeResult(nan)]) == 0


def test_start_seeds_deterministic():
    a = start_seeds(11, 4)
    b = start_seeds(11, 4)
    assert [s.entropy for s in a] == [s.entropy for s in b]
    assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
    assert len({s.spawn_key for s in a}) == 4


def test_nncp_algorithm_keeps_factors_nonnegative(tensor):
    nonneg = np.abs(tensor)
    result = multi_start(nonneg, NNOptions(rank=RANK, seed=4, n_sweeps=6, tol=0.0),
                         n_starts=2)
    assert result.algorithm == "nncp"
    for start in result.results:
        assert all((f >= 0).all() for f in start.factors)


def test_algorithm_inferred_from_options_bundle(tensor):
    result = multi_start(np.abs(tensor), n_starts=2,
                         options=NNOptions(rank=RANK, n_sweeps=5, tol=0.0,
                                           seed=3))
    assert result.algorithm == "nncp"


def test_masked_algorithm_accepts_mask(tensor):
    from repro.core.masked_cp_als import MaskedALSResult

    mask = np.random.default_rng(0).random(tensor.shape) < 0.5
    result = multi_start(tensor, MaskedOptions(rank=RANK, seed=5, n_sweeps=5, tol=0.0),
                         n_starts=2, mask=mask)
    assert isinstance(result.best, MaskedALSResult)
    assert result.best.n_observed == int(mask.sum())


def test_options_record_the_bundle_not_the_runtime_arguments(tensor):
    options = MaskedOptions(rank=RANK, seed=5, n_sweeps=3, tol=0.0)
    mask = np.random.default_rng(0).random(tensor.shape) < 0.5
    seen = []
    result = multi_start(tensor, options, n_starts=2, mask=mask,
                         callback=lambda sweep, factors, fitness: seen.append(sweep))
    assert seen == [0, 1, 2, 0, 1, 2]
    assert result.options == {**options.asdict(), "n_starts": 2}


def test_mask_rejected_for_non_masked_algorithms(tensor):
    mask = np.ones(tensor.shape, dtype=bool)
    with pytest.raises(TypeError, match="does not accept a mask"):
        multi_start(tensor, ALSOptions(rank=RANK), n_starts=2, mask=mask)
