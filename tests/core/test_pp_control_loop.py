"""The PP control loop: when a run stops, what the confirming sweep costs, why a
phase ended, and that the sequential and parallel drivers agree on all of it."""

import logging

import numpy as np
import pytest

from repro.core.cp_als import cp_als
from repro.core.initialization import init_factors
from repro.core.loop import SequentialRun, _ExactSweepRule
from repro.core.nn_cp_als import nn_cp_als
from repro.core.normal_equations import gram_matrix
from repro.core.parallel_common import ParallelRun
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.core.pp_cp_als import pp_cp_als
from repro.core.updates import sweep
from repro.data import collinearity_tensor, sparse_low_rank_tensor
from repro.machine.cost_tracker import CostTracker
from repro.tensor.norms import relative_residual, residual_from_mttkrp, tensor_norm
from repro.trees.registry import make_provider

TOL = 1e-5
TRIPLE = ["als", "pp-init", "pp-approx"]


def collinear(order: int, size: int = 12, rank: int = 4):
    """A collinearity-0.8 tensor and a start that walks through a swamp (the
    tiny ``dense4_collinear`` of the harness at ``order=4``)."""
    generated = collinearity_tensor((size,) * order, rank, (0.8, 0.8), seed=1)
    mixing = np.random.default_rng(2).random((order, rank, rank))
    return generated.tensor, [f @ m for f, m in zip(generated.factors, mixing)]


@pytest.fixture(scope="module")
def sparse3():
    coo = sparse_low_rank_tensor((16, 14, 12), rank=3, density=0.25, noise=0.05, seed=42)
    return coo, init_factors(coo.shape, 3, seed=17)


def sweep_types(result) -> list[str]:
    return [record.sweep_type for record in result.sweeps]


class TestStopRule:
    @pytest.fixture(scope="class")
    def run(self):
        tensor, start = collinear(4)
        iterates = []
        result = pp_cp_als(tensor, 4, n_sweeps=300, tol=TOL, pp_tol=0.2, mttkrp="msdt",
                           initial_factors=start,
                           callback=lambda index, factors, fitness: iterates.append(factors))
        return tensor, start, result, iterates

    def test_converged_run_ends_on_one_confirming_sweep(self, run):
        _, _, result, _ = run
        types = sweep_types(result)
        assert result.converged
        assert types[-2:] == ["pp-approx", "als"]
        # no run of one-sweep phases, each "confirmed" against a stale residual
        assert types[-7:-1] != TRIPLE + TRIPLE

    def test_stop_compares_two_exact_residuals_one_sweep_apart(self, run):
        tensor, _, result, iterates = run
        before, after = (relative_residual(tensor, factors) for factors in iterates[-2:])
        assert abs(before - after) < TOL
        assert result.residual == pytest.approx(after, abs=1e-9)

    def test_stops_where_exact_als_stops(self, run):
        tensor, start, result, _ = run
        als = cp_als(tensor, 4, n_sweeps=300, tol=TOL, mttkrp="dt", initial_factors=start)
        assert als.converged
        assert result.residual <= als.residual + TOL
        assert result.n_sweeps <= als.n_sweeps

    @pytest.mark.parametrize("engine", ["naive", "dt", "msdt", "sparse-dt", "sparse-msdt"])
    def test_start_residual_is_exact_and_costs_no_mttkrp(self, engine, sparse3):
        tensor, start = sparse3 if engine.startswith("sparse") else collinear(3)
        rule, plain = _ExactSweepRule(), CostTracker()
        tracker = CostTracker()
        provider = make_provider(engine, tensor, start, tracker=tracker)
        sweep(provider, [gram_matrix(f) for f in start], rule=rule, tracker=tracker)
        # read after the sweep has moved every factor: nothing it keeps is a
        # buffer the sweep writes to
        at_start = residual_from_mttkrp(tensor_norm(tensor), *rule.start, last_mode=0)
        assert at_start == pytest.approx(relative_residual(tensor, start), abs=1e-10)
        reference = make_provider(engine, tensor, start, tracker=plain)
        sweep(reference, [gram_matrix(f) for f in start], tracker=plain)
        assert tracker.flops_by_category == plain.flops_by_category

    @pytest.mark.parametrize("engine", ["dt", "msdt", "sparse-dt"])
    def test_confirming_sweep_costs_an_ordinary_cold_sweep(self, engine, sparse3):
        if engine == "sparse-dt":
            (tensor, start), rank, pp_tol = sparse3, 3, 0.4
        else:
            (tensor, start), rank, pp_tol = collinear(3), 4, 0.2
        iterates = []
        result = pp_cp_als(tensor, rank, n_sweeps=300, tol=TOL, pp_tol=pp_tol, mttkrp=engine,
                           initial_factors=start,
                           callback=lambda index, factors, fitness: iterates.append(factors))
        assert result.converged and sweep_types(result)[-2:] == ["pp-approx", "als"]
        tracker = CostTracker()
        provider = make_provider(engine, tensor, iterates[-2], tracker=tracker)
        sweep(provider, [gram_matrix(f) for f in provider.factors], tracker=tracker)
        confirming = result.sweeps[-1].flops
        for category in ("ttm", "mttv"):
            assert confirming.get(category, 0) == tracker.flops_by_category.get(category, 0)
        for a, b in zip(provider.factors, result.factors):
            assert np.allclose(a, b, atol=1e-10)


class TestPhaseLog:
    def reasons(self, caplog, **kwargs) -> list[str]:
        tensor, start = collinear(4)
        options = dict(n_sweeps=300, tol=TOL, pp_tol=0.2, mttkrp="msdt", initial_factors=start)
        options.update(kwargs)
        with caplog.at_level(logging.DEBUG, logger="repro.core"):
            result = pp_cp_als(tensor, 4, **options)
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.core"]
        assert all(m.startswith("pp phase: ") for m in messages)
        assert len(messages) == result.count_sweeps("pp-init")
        counts = [int(m.split()[2]) for m in messages]
        assert sum(counts) == result.count_sweeps("pp-approx")
        return [m.split("ended by ")[1].split("(")[0] for m in messages]

    def test_reason_sequence_on_a_collinear_tensor(self, caplog):
        assert self.reasons(caplog) == [
            "pp_tol", "pp_tol", "stalled", "stalled", "stalled", "converged"]
        assert "ended by pp_tol(mode 0, 0.2" in caplog.records[0].getMessage()

    def test_sweep_bounds_read_budget(self, caplog):
        reasons = self.reasons(caplog, max_pp_sweeps_per_phase=3)
        assert set(reasons[:-1]) == {"pp_tol", "budget"} and reasons[-1] == "converged"
        caplog.clear()
        assert self.reasons(caplog, n_sweeps=10) == ["pp_tol", "budget"]

    def test_parallel_driver_logs_the_same_reasons(self, caplog):
        sequential = self.reasons(caplog)
        caplog.clear()
        tensor, start = collinear(4)
        with caplog.at_level(logging.DEBUG, logger="repro.core"):
            parallel_pp_cp_als(tensor, 4, (1, 2, 1, 2), n_sweeps=300, tol=TOL, pp_tol=0.2,
                               mttkrp="msdt", initial_factors=start)
        parallel = [r.getMessage().split("ended by ")[1].split("(")[0]
                    for r in caplog.records if r.name == "repro.core"]
        assert parallel == sequential

    def test_silent_when_debug_is_off(self, caplog):
        tensor, start = collinear(3)
        with caplog.at_level(logging.INFO, logger="repro.core"):
            pp_cp_als(tensor, 4, n_sweeps=40, tol=TOL, pp_tol=0.2, initial_factors=start)
        assert not [r for r in caplog.records if r.name == "repro.core"]


#: (sequential driver, parallel driver, extra keywords of both) per loop flavour
DRIVER_PAIRS = {
    "pp": (pp_cp_als, parallel_pp_cp_als, {"mttkrp": "msdt"}),
    "als": (cp_als, parallel_cp_als, {"mttkrp": "dt"}),
    "hals": (nn_cp_als, parallel_cp_als, {"mttkrp": "dt", "update": "hals"}),
}


def parity_inputs(kind, flavour, sparse3):
    """``(tensor, rank, start, extra keywords)`` of one parity case."""
    if kind == "sparse":
        (tensor, start), rank, pp_tol = sparse3, 3, 0.4
    else:
        (tensor, start), rank, pp_tol = collinear(3), 4, 0.2
    if flavour == "hals":
        start = init_factors(tensor.shape, rank, seed=23)  # nonnegative
    return tensor, rank, start, {"pp_tol": pp_tol} if flavour == "pp" else {}


class TestSequentialParallelParity:
    @pytest.mark.parametrize("flavour,grid,execution", [
        *((flavour, grid, "simulated") for flavour in DRIVER_PAIRS
          for grid in [(1, 1, 1), (1, 2, 2)]),
        ("pp", (1, 2, 2), "process"),
    ])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_same_sweep_types_and_factors_at_positive_tol(
            self, kind, flavour, grid, execution, sparse3):
        tensor, rank, start, extra = parity_inputs(kind, flavour, sparse3)
        sequential_driver, parallel_driver, common = DRIVER_PAIRS[flavour]
        kwargs = dict(n_sweeps=300, tol=TOL, initial_factors=start, **common, **extra)
        sequential = sequential_driver(tensor, rank, **kwargs)
        parallel = parallel_driver(tensor, rank, grid, execution=execution, **kwargs)
        assert sequential.converged and parallel.converged
        assert parallel.n_sweeps == sequential.n_sweeps
        if flavour == "pp":
            assert sweep_types(sequential)[-2:] == ["pp-approx", "als"]
        assert sweep_types(parallel) == sweep_types(sequential)
        for a, b in zip(parallel.factors, sequential.factors):
            assert np.allclose(a, b, atol=1e-8)

    def test_parallel_drivers_report_the_same_options(self, sparse3):
        tensor, start = sparse3
        kwargs = dict(n_sweeps=3, tol=0.0, mttkrp="msdt", initial_factors=start)
        als = parallel_cp_als(tensor, 3, (1, 2, 2), **kwargs).options
        pp = parallel_pp_cp_als(tensor, 3, (1, 2, 2), pp_tol=0.4, **kwargs).options
        assert set(pp) ^ set(als) == {"pp_tol"}
        assert {key: pp[key] for key in als} == als
        assert als["execution"] == "SimulatedMachine"


def state_of(run):
    """Copies of a substrate's global factors and Gram matrices."""
    if isinstance(run, ParallelRun):
        return ([df.padded_global() for df in run.state.dist_factors],
                [g.copy() for g in run.state.grams])
    return [f.copy() for f in run.provider.factors], [g.copy() for g in run.grams]


@pytest.fixture
def diverge_once(monkeypatch):
    """Make each run's first approximated sweep report its residual 0.5 too
    high, on both substrates; the list collects ``(before, after rollback)``
    states of every rolled-back sweep."""
    rollbacks = []
    for substrate in (SequentialRun, ParallelRun):
        def approx_sweep(self, real=substrate.approx_sweep):
            if getattr(self, "forced", False):
                return real(self)
            self.forced = True
            rollbacks.append([state_of(self)])
            return real(self) + 0.5

        def restore(self, saved, real=substrate.restore):
            real(self, saved)
            rollbacks[-1].append(state_of(self))

        monkeypatch.setattr(substrate, "approx_sweep", approx_sweep)
        monkeypatch.setattr(substrate, "restore", restore)
    return rollbacks


class TestDivergenceRollback:
    def reasons(self, caplog) -> list[str]:
        return [r.getMessage().split("ended by ")[1] for r in caplog.records
                if r.name == "repro.core"]

    def check(self, result, rollbacks, caplog):
        types = sweep_types(result)
        first = types.index("pp-init")
        # the rolled-back sweep left no record: the exact sweep follows pp-init
        assert types[first + 1] == "als"
        assert [r.index for r in result.sweeps] == list(range(result.n_sweeps))
        assert self.reasons(caplog)[0] == "diverged"
        assert caplog.records[0].getMessage().startswith("pp phase: 0 approximated")
        (before, after), = rollbacks
        for saved, restored in zip(before, after):  # factors, then Grams
            assert all(np.array_equal(a, b) for a, b in zip(saved, restored))
        return types

    @pytest.mark.parametrize("execution", ["simulated", "process"])
    def test_both_substrates_roll_back_the_same_sweep(self, diverge_once, caplog,
                                                      execution, sparse3):
        tensor, start = sparse3
        kwargs = dict(n_sweeps=300, tol=TOL, pp_tol=0.4, mttkrp="msdt",
                      initial_factors=start)
        with caplog.at_level(logging.DEBUG, logger="repro.core"):
            sequential = pp_cp_als(tensor, 3, **kwargs)
        types = self.check(sequential, diverge_once, caplog)
        diverge_once.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.core"):
            parallel = parallel_pp_cp_als(tensor, 3, (1, 2, 2), execution=execution,
                                          **kwargs)
        assert self.check(parallel, diverge_once, caplog) == types
        # the exact sweep after the rollback ran on the restored factors on
        # every rank (under process execution: republished to the workers)
        for a, b in zip(parallel.factors, sequential.factors):
            assert np.allclose(a, b, atol=1e-8)
