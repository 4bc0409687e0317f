"""Communication-efficient parallel pairwise perturbation (Algorithm 4).

This is the second contribution of the paper: both PP steps are reorganized so
that all tensor-sized work happens on the *local* tensor blocks.

* **PP initialization** — every processor builds the pairwise operators
  ``M_p^(i,j)`` from its own tensor block and its slice-local factor blocks
  (no communication at all; the reference implementation of [21] instead runs
  distributed matrix multiplications, whose much larger communication volume
  is what Table II measures).
* **PP approximated sweeps** — the first-order corrections ``U^(n,i)`` are
  also local; one Reduce-Scatter per mode update combines them (Algorithm 4
  line 9), the second-order correction ``V^(n)`` only involves replicated
  ``R x R`` matrices, and the solve / All-Gather / All-Reduce sequence of
  Algorithm 3 finishes the update.

The regular (exact) sweeps between PP phases reuse Algorithm 3 with the MSDT
local engine, as the paper's implementation does.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, Sequence

import numpy as np

from repro.comm.simulated import SimulatedMachine
from repro.core.parallel_common import (
    ParallelState,
    allreduce_rowwise_product,
    parallel_mode_update,
    setup_parallel_state,
    zero_delta_factors,
)
from repro.core.options import ParallelPPOptions, resolve_options
from repro.core.pp_corrections import (
    log_pp_phase,
    logger,
    pp_phase_end,
    pp_step_within_tolerance,
    second_order_accumulator,
)
from repro.core.results import ParallelALSResult, ResultBase, SweepRecord
from repro.distributed.dist_factor import DistributedFactor
from repro.distributed.dist_tensor import DistributedTensor
from repro.grid.processor_grid import ProcessorGrid
from repro.machine.cost_tracker import CostTracker
from repro.machine.params import MachineParams
from repro.tensor.norms import residual_from_mttkrp
from repro.trees.pp_operators import PairwiseOperators

__all__ = ["parallel_pp_cp_als"]


def _build_local_pp_operators(state: ParallelState) -> Dict[int, PairwiseOperators]:
    """Local-PP-init of Algorithm 4 (line 2): one operator set per processor.

    On sparse per-rank blocks the operators come out of each rank's CSF-based
    tree provider as semi-sparse descents (:mod:`repro.trees.sparse_pp`) and
    stay in fiber form — order > 3 blocks no longer materialize the dense
    ``(s_i, s_j, R)`` pair operators, and intermediates still valid from the
    preceding exact sweep are reused rank-locally.

    Remote providers (process execution) build their operators inside the
    worker instead, concurrently across ranks; the worker also checkpoints
    its factors so later PP contributions can recompute the delta factors
    locally.  Their dict entry is the provider itself — the contribution path
    dispatches on it, never on a master-side operator set.
    """
    operators: Dict[int, PairwiseOperators] = {}
    remote = [proc for proc in state.grid.ranks()
              if hasattr(state.providers[proc], "pp_build_submit")]
    for proc in remote:
        state.providers[proc].pp_build_submit()
    for proc in state.grid.ranks():
        provider = state.providers[proc]
        if proc in remote:
            provider.pp_build_result()
            operators[proc] = provider
        else:
            operators[proc] = PairwiseOperators.build(
                provider.tensor,
                provider.factors,
                tracker=state.machine.tracker(proc),
                provider=provider,
            )
    return operators


def _pp_contributions(
    state: ParallelState,
    local_operators: Dict[int, PairwiseOperators],
    delta_factors: list[DistributedFactor],
    grams: list[np.ndarray],
    delta_grams: list[np.ndarray],
    mode: int,
) -> tuple[Dict[int, np.ndarray] | None, Dict[int, int] | None]:
    """Per-rank approximated MTTKRP contributions for one mode update.

    Each rank contributes its local ``M_p^(mode) + sum_i U^(mode,i)`` plus its
    share of the (global, cheap) second-order correction ``V^(mode)``, so that
    summing the contributions over the mode's processor slice reproduces
    Eq. (5) exactly.

    Returns ``(contributions, panel_rows)``: normally the per-rank arrays and
    ``None``.  Under worker-side collectives the results stay in the workers'
    shared output panels — the return is ``(None, per-rank row counts)`` and
    :func:`~repro.core.parallel_common.parallel_mode_update` reduces the
    panels in place.
    """
    machine = state.machine
    rank_r = state.rank

    # second-order accumulator (R x R), identical on every rank (redundant compute)
    t0 = time.perf_counter()
    accumulator, hadamard_flops = second_order_accumulator(mode, grams, delta_grams)
    elapsed = time.perf_counter() - t0
    for proc in state.grid.ranks():
        tracker = machine.tracker(proc)
        tracker.add_flops("hadamard", hadamard_flops)
        tracker.add_seconds("hadamard", elapsed)

    slice_groups = state.grid.slice_groups(mode)
    group_size = len(slice_groups[0]) if slice_groups else 1

    if state.collectives == "worker" and state.runtime is not None:
        # worker-side collectives: results stay in the shared panels for the
        # reduction tree, only row counts come back
        for proc in state.grid.ranks():
            state.providers[proc].pp_contrib_submit(mode, accumulator, group_size)
        panel_rows = {
            proc: state.providers[proc].pp_contrib_result_rows()
            for proc in state.grid.ranks()
        }
        return None, panel_rows

    contributions: Dict[int, np.ndarray] = {}
    remote = [proc for proc in state.grid.ranks()
              if hasattr(state.providers[proc], "pp_contrib_submit")]
    for proc in remote:
        # the worker recomputes its delta factors from the pp_build checkpoint,
        # so only the R x R accumulator crosses the process boundary
        state.providers[proc].pp_contrib_submit(mode, accumulator, group_size)
    for proc in remote:
        contributions[proc] = state.providers[proc].pp_contrib_result()
    for proc in state.grid.ranks():
        if proc in remote:
            continue
        tracker = machine.tracker(proc)
        local = local_operators[proc].first_order_mttkrp(
            mode,
            [None if other == mode else df.local_block_for(proc)
             for other, df in enumerate(delta_factors)],
            tracker=tracker,
        )
        # this rank's share of V^(mode): rows of its factor block times the
        # accumulator, divided by the slice size so the Reduce-Scatter sum
        # contributes V exactly once
        factor_block = state.dist_factors[mode].local_block_for(proc)
        t0 = time.perf_counter()
        v_block = factor_block @ accumulator
        elapsed = time.perf_counter() - t0
        tracker.add_flops("others", 2 * factor_block.shape[0] * rank_r * rank_r // max(group_size, 1))
        tracker.add_seconds("others", elapsed)
        contributions[proc] = local + v_block / max(group_size, 1)
    return contributions, None


def parallel_pp_cp_als(
    tensor: np.ndarray | DistributedTensor,
    rank: int | None = None,
    grid: ProcessorGrid | Sequence[int] | None = None,
    n_sweeps: int | None = None,
    tol: float | None = None,
    pp_tol: float | None = None,
    mttkrp: str | None = None,
    machine: SimulatedMachine | None = None,
    params: MachineParams | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    seed: int | np.random.Generator | None = None,
    distributed_solve: bool | None = None,
    record_sweeps: bool = True,
    max_pp_sweeps_per_phase: int | None = None,
    max_cache_bytes: int | None = None,
    partitioner: str | None = None,
    partition_seed: int | np.random.Generator | None = None,
    update: str | None = None,
    execution: str | None = None,
    collectives: str | None = None,
    options: ParallelPPOptions | None = None,
) -> ParallelALSResult:
    """Parallel PP-CP-ALS (Algorithm 4) on the simulated machine.

    Arguments mirror :func:`repro.core.parallel_cp_als.parallel_cp_als`
    (including sparse :class:`~repro.sparse.CooTensor` inputs and the
    ``partitioner`` selection) plus the PP tolerance ``pp_tol`` and the
    per-phase safety bound ``max_pp_sweeps_per_phase`` (see
    :func:`repro.core.pp_cp_als.pp_cp_als`).  The ``options=`` bundle is a
    :class:`~repro.core.options.ParallelPPOptions`, mutually exclusive with
    the matching legacy keywords (``DeprecationWarning`` when both are given,
    the keywords override).
    """
    if grid is None and options is None:
        raise TypeError("grid is required (pass grid= or an options= bundle)")
    opts = resolve_options(
        ParallelPPOptions, options,
        {"rank": rank, "n_sweeps": n_sweeps, "tol": tol, "pp_tol": pp_tol,
         "mttkrp": mttkrp, "seed": seed, "distributed_solve": distributed_solve,
         "partitioner": partitioner, "update": update,
         "execution": execution, "collectives": collectives,
         "max_pp_sweeps_per_phase": max_pp_sweeps_per_phase,
         "grid": None if grid is None else tuple(getattr(grid, "dims", grid))},
    )
    if opts.update != "least_squares":
        # the PP corrections linearize the *least-squares* update around the
        # checkpoint; other rules have no perturbative expansion here
        raise NotImplementedError(
            "parallel_pp_cp_als supports only the least_squares update rule; "
            "use parallel_cp_als(update=...) for parallel nonnegative CP"
        )
    rank, n_sweeps, tol, pp_tol, mttkrp, seed = (
        opts.rank, opts.n_sweeps, opts.tol, opts.pp_tol, opts.mttkrp, opts.seed,
    )
    distributed_solve, partitioner = opts.distributed_solve, opts.partitioner
    max_pp_sweeps_per_phase = opts.max_pp_sweeps_per_phase
    grid = grid if grid is not None else opts.grid

    state = setup_parallel_state(
        tensor, rank, grid,
        mttkrp=mttkrp, machine=machine, params=params,
        initial_factors=initial_factors, seed=seed,
        distributed_solve=distributed_solve,
        max_cache_bytes=max_cache_bytes,
        partitioner=partitioner, partition_seed=partition_seed,
        execution=opts.execution,
        collectives=opts.collectives,
    )
    machine = state.machine
    order = state.order

    # Algorithm 2 line 2: dA^(i) <- A^(i) so exact sweeps run first.
    delta_factors = [df.copy() for df in state.dist_factors]

    records: list[SweepRecord] = []
    per_sweep_modeled: list[float] = []
    residual = 1.0
    previous_residual = np.inf
    converged = False
    cumulative = 0.0
    total_sweeps = 0
    run_start = time.perf_counter()

    def _steps() -> tuple[list[np.ndarray], list[np.ndarray], float]:
        return ([df.padded_global() for df in state.dist_factors],
                [df.padded_global() for df in delta_factors], pp_tol)

    def _within_tolerance() -> bool:
        return pp_step_within_tolerance(*_steps())

    def _set_step(mode: int, reference: list[DistributedFactor]) -> None:
        for x in range(state.grid.dims[mode]):
            delta_factors[mode].set_block(
                x, state.dist_factors[mode].block(x) - reference[mode].block(x))

    def _record(sweep_type: str, elapsed: float, snapshots) -> None:
        nonlocal cumulative
        cumulative += elapsed
        sweep_costs = machine.costs_since(snapshots)
        critical = CostTracker.max_over(sweep_costs)
        modeled = critical.modeled_time(machine.params)
        per_sweep_modeled.append(modeled)
        if record_sweeps:
            records.append(
                SweepRecord(
                    index=total_sweeps - 1,
                    sweep_type=sweep_type,
                    fitness=ResultBase.fitness_from_residual(residual),
                    residual=residual,
                    elapsed_seconds=elapsed,
                    cumulative_seconds=cumulative,
                    kernel_seconds=critical.seconds_by_category,
                    flops=critical.flops_by_category,
                    modeled_seconds=modeled,
                )
            )

    # the finally releases process-execution workers and shared segments on
    # success, failure and KeyboardInterrupt alike (no-op when simulated)
    try:
        while total_sweeps < n_sweeps:
            inner, phase_end = 0, None
            if _within_tolerance():
                # ---------------------------------------------------- PP initialization
                sweep_start = time.perf_counter()
                snapshots = machine.snapshot_costs()
                checkpoint = [df.copy() for df in state.dist_factors]
                delta_factors = zero_delta_factors(state)
                local_operators = _build_local_pp_operators(state)
                delta_grams = [np.zeros((rank, rank)) for _ in range(order)]
                total_sweeps += 1
                elapsed = time.perf_counter() - sweep_start
                _record("pp-init", elapsed, snapshots)

                # ---------------------------------------------------- PP approximated sweeps
                while (
                    total_sweeps < n_sweeps
                    and inner < max_pp_sweeps_per_phase
                    and _within_tolerance()
                ):
                    sweep_start = time.perf_counter()
                    snapshots = machine.snapshot_costs()
                    last_summed = None
                    for mode in range(order):
                        contributions, panel_rows = _pp_contributions(
                            state, local_operators, delta_factors,
                            state.grams, delta_grams, mode,
                        )
                        _, summed = parallel_mode_update(
                            state, mode, contributions=contributions,
                            panel_rows=panel_rows,
                        )
                        last_summed = summed
                        # refresh the distributed step and its Gram products
                        _set_step(mode, checkpoint)
                        delta_grams[mode] = allreduce_rowwise_product(
                            state,
                            state.dist_factors[mode].padded_global(),
                            delta_factors[mode].padded_global(),
                        )
                    assert last_summed is not None
                    residual = residual_from_mttkrp(
                        state.norm_t,
                        last_summed,
                        state.dist_factors[order - 1].padded_global(),
                        state.grams,
                        last_mode=order - 1,
                    )
                    total_sweeps += 1
                    inner += 1
                    elapsed = time.perf_counter() - sweep_start
                    _record("pp-approx", elapsed, snapshots)
                    if abs(previous_residual - residual) < tol:
                        # stalled: whether the run is done is for the exact sweep
                        phase_end = "stalled"
                        break
                    previous_residual = residual
                if phase_end is None and logger.isEnabledFor(logging.DEBUG):
                    # gathers the global factors: for the DEBUG record only
                    phase_end = pp_phase_end(*_steps())

            if total_sweeps >= n_sweeps:
                log_pp_phase(inner, "budget")
                break

            # -------------------------------------------------------------- exact sweep
            sweep_start = time.perf_counter()
            snapshots = machine.snapshot_costs()
            before_blocks = [df.copy() for df in state.dist_factors]
            grams_before = list(state.grams)
            last_summed = None
            for mode in range(order):
                _, summed = parallel_mode_update(state, mode)
                if mode == 0 and inner:
                    # the factors moved since the last exact residual: Eq. (3)
                    # on this sweep's first MTTKRP gives the one it starts from
                    previous_residual = residual_from_mttkrp(
                        state.norm_t, summed, before_blocks[0].padded_global(),
                        grams_before, last_mode=0)
                last_summed = summed
            assert last_summed is not None
            residual = residual_from_mttkrp(
                state.norm_t,
                last_summed,
                state.dist_factors[order - 1].padded_global(),
                state.grams,
                last_mode=order - 1,
            )
            delta_factors = zero_delta_factors(state)
            for mode in range(order):
                _set_step(mode, before_blocks)
            total_sweeps += 1
            elapsed = time.perf_counter() - sweep_start
            _record("als", elapsed, snapshots)
            converged = abs(previous_residual - residual) < tol
            log_pp_phase(inner, phase_end, converged)
            if converged:
                break
            previous_residual = residual

    finally:
        state.close()
    total_elapsed = time.perf_counter() - run_start
    return ParallelALSResult(
        factors=state.global_factors(),
        fitness=ResultBase.fitness_from_residual(residual),
        residual=residual,
        n_sweeps=total_sweeps,
        converged=converged,
        sweeps=records,
        tracker=machine.critical_path_tracker(),
        elapsed_seconds=total_elapsed,
        options={
            "rank": rank,
            "n_sweeps": n_sweeps,
            "tol": tol,
            "pp_tol": pp_tol,
            "mttkrp": mttkrp,
            "grid": tuple(state.grid.dims),
            "distributed_solve": distributed_solve,
            "collectives": state.collectives,
        },
        grid_dims=tuple(state.grid.dims),
        per_sweep_modeled_seconds=per_sweep_modeled,
        critical_path=machine.critical_path_tracker(),
    )
