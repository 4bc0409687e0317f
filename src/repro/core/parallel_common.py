"""Shared machinery of the parallel drivers (Algorithms 3 and 4).

The drivers are written as BSP supersteps over a
:class:`~repro.comm.simulated.SimulatedMachine`: local kernels run per rank on
that rank's tensor block and factor blocks
(:class:`~repro.distributed.rank.RankKernels`, in this process or in a
process worker; they record their flops and wall time into the rank's cost
tracker), and the collectives of Algorithm 3 (lines
14, 17, 18) move data between ranks while charging the alpha-beta costs of
Section II-E.  Because the data movement is performed exactly, the parallel
drivers produce the same iterates as the sequential ones given the same
initial factors — an invariant the integration tests rely on.

:class:`ParallelRun` is the substrate both parallel drivers hand to the one
sweep loop, :func:`repro.core.loop.run_sweeps`; :func:`solve_parallel` is
their shared body.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.comm import MACHINES
from repro.comm.simulated import SimulatedMachine
from repro.core.initialization import check_tensor_norm, init_factors
from repro.core.loop import SweepRun, run_sweeps
from repro.core.normal_equations import solve_normal_equations
from repro.core.options import ParallelOptions
from repro.core.pp_corrections import second_order_accumulator
from repro.core.results import ParallelALSResult
from repro.core.updates import make_update_rule
from repro.distributed.dist_factor import DistributedFactor
from repro.distributed.dist_tensor import DistributedTensor
from repro.distributed.rank import RankKernels
from repro.distributed.runtime import LocalRuntime, ProcessRuntime, RemoteRank
from repro.distributed.sparse import DistSparseTensor
from repro.grid.distribution import split_rows_evenly
from repro.grid.processor_grid import ProcessorGrid
from repro.machine.cost_tracker import CostTracker
from repro.machine.params import MachineParams
from repro.tensor.norms import residual_from_mttkrp
from repro.tensor.products import hadamard_all_but
from repro.utils.validation import check_dense_tensor, check_factor_matrices

__all__ = [
    "ParallelState",
    "setup_parallel_state",
    "parallel_mode_update",
    "ParallelRun",
    "solve_parallel",
    "zero_delta_factors",
    "allreduce_rowwise_product",
    "compute_gamma",
]


@dataclass
class ParallelState:
    """Everything a parallel sweep needs, bundled."""

    grid: ProcessorGrid
    machine: SimulatedMachine
    dist_tensor: DistributedTensor | DistSparseTensor
    dist_factors: List[DistributedFactor]
    #: the ranks on the machine, built by its ``attach``: a
    #: :class:`~repro.distributed.runtime.LocalRuntime` or a
    #: :class:`~repro.distributed.runtime.ProcessRuntime`, whose ``ranks`` are
    #: driven through ``set_factor`` / ``submit`` / ``collect``
    runtime: LocalRuntime | ProcessRuntime
    grams: List[np.ndarray]
    norm_t: float
    rank: int
    distributed_solve: bool = True
    solve_latency_messages: int = 2
    #: whether :func:`setup_parallel_state` created the machine itself (and
    #: :meth:`close` should therefore shut it down)
    owns_machine: bool = False

    @property
    def order(self) -> int:
        return self.grid.order

    @property
    def ranks(self) -> Dict[int, RankKernels | RemoteRank]:
        return self.runtime.ranks

    def close(self) -> None:
        """Detach the runtime (process workers drop their state, the panels
        are unlinked), then close the machine if :func:`setup_parallel_state`
        created it.  Idempotent; the drivers call it in a ``finally``, so
        segments are reclaimed on success, failure and interrupt alike.
        """
        self.runtime.detach()
        if self.owns_machine:
            self.machine.close()


def _charge_all_ranks_flops(machine: SimulatedMachine, category: str, flops: int,
                            seconds: float = 0.0) -> None:
    for rank in range(machine.n_ranks):
        tracker = machine.tracker(rank)
        tracker.add_flops(category, flops)
        if seconds:
            tracker.add_seconds(category, seconds)


def setup_parallel_state(
    tensor: np.ndarray | DistributedTensor | DistSparseTensor,
    options: ParallelOptions,
    *,
    machine: SimulatedMachine | None = None,
    params: MachineParams | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    max_cache_bytes: int | None = None,
) -> ParallelState:
    """Distribute the tensor and factors and build the per-rank MTTKRP engines.

    ``options`` is the run's :class:`~repro.core.options.ParallelOptions`
    (grid, local engine, seed, solve model, partitioner and substrate).
    ``tensor`` may be dense (an ndarray or a pre-built
    :class:`~repro.distributed.dist_tensor.DistributedTensor`) or sparse (a
    :class:`~repro.sparse.CooTensor` or a pre-built
    :class:`~repro.distributed.sparse.DistSparseTensor`).  Sparse inputs are
    partitioned by ``options.partitioner`` (see
    :func:`repro.grid.balance.make_partition`), dense ones always by the
    uniform partition, and each factor's rows follow its mode's partition.
    The per-rank MTTKRP engines of a sparse input come from the sparse
    registry, so ``mttkrp="dt"``/``"msdt"`` build CSF-based semi-sparse
    dimension trees on each rank's own block.

    ``options.execution`` selects the substrate when no ``machine`` is
    passed (:data:`repro.comm.MACHINES`): ``"simulated"`` (logical ranks
    in-process, bit-identical to real distributed execution) or
    ``"process"`` (a :class:`~repro.comm.procs.ProcessMachine` with one
    spawned worker per rank and shared-memory factor panels).  An explicit
    ``machine`` always wins.  The machine's ``attach`` builds the ranks: a
    :class:`~repro.distributed.rank.RankKernels` per rank in this process, or
    a :class:`~repro.distributed.runtime.RemoteRank` whose worker runs them.
    Callers must ``state.close()`` when done so worker state and shared
    segments are reclaimed (the drivers do this in a ``finally``).
    """
    grid = ProcessorGrid(options.grid)
    rank = options.rank
    distributed = isinstance(tensor, (DistributedTensor, DistSparseTensor))
    if distributed:
        if tensor.grid != grid:
            raise ValueError("distributed tensor was built for a different grid")
    else:
        if not is_sparse_tensor(tensor):
            tensor = check_dense_tensor(tensor, min_order=2)
        if tensor.ndim != grid.order:
            raise ValueError(
                f"tensor order {tensor.ndim} does not match grid order {grid.order}"
            )
    # an all-zero tensor is refused before it is partitioned and before any
    # worker starts, with the sequential drivers' message
    norm_t = check_tensor_norm(tensor)
    if distributed:
        dist_tensor = tensor
        global_shape = tensor.global_shape
    elif is_sparse_tensor(tensor):
        dist_tensor = DistSparseTensor.from_coo(
            tensor, grid, partitioner=options.partitioner
        )
        global_shape = tensor.shape
    else:
        dist_tensor = DistributedTensor.from_dense(tensor, grid)
        global_shape = tensor.shape

    owns_machine = machine is None
    if machine is None:
        machine = MACHINES[options.execution](grid.size, params=params)
    elif machine.n_ranks != grid.size:
        raise ValueError(
            f"machine has {machine.n_ranks} ranks but grid needs {grid.size}"
        )

    if initial_factors is None:
        factors = init_factors(global_shape, rank, seed=options.seed, method="uniform")
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in
                   check_factor_matrices(initial_factors, shape=global_shape, rank=rank)]

    dist_factors = [
        DistributedFactor.from_global(factors[mode], mode, grid,
                                      dist_tensor.partition.modes[mode])
        for mode in range(grid.order)
    ]

    try:
        runtime = machine.attach(grid, dist_tensor, dist_factors, options.mttkrp,
                                 max_cache_bytes=max_cache_bytes)
    except BaseException:
        if owns_machine:
            machine.close()
        raise

    state = ParallelState(
        grid=grid,
        machine=machine,
        dist_tensor=dist_tensor,
        dist_factors=dist_factors,
        runtime=runtime,
        grams=[np.eye(rank)] * grid.order,
        norm_t=norm_t,
        rank=rank,
        distributed_solve=options.distributed_solve,
        owns_machine=owns_machine,
    )
    # initial Gram matrices + All-Reduce (Algorithm 3 lines 4-9)
    padded = [f.padded_global() for f in dist_factors]
    state.grams = [allreduce_rowwise_product(state, p, p) for p in padded]
    return state


def allreduce_rowwise_product(
    state: ParallelState,
    left_padded: np.ndarray,
    right_padded: np.ndarray,
    category: str = "others",
) -> np.ndarray:
    """``left^T @ right`` computed from per-rank row chunks + All-Reduce.

    Used for the Gram updates ``S^(i) = A^(i)^T A^(i)`` and the PP step
    products ``dS^(i) = A^(i)^T dA^(i)`` (Eq. 8), both of which Algorithm 3/4
    compute on the row-distributed factors followed by an All-Reduce over all
    processors.
    """
    if left_padded.shape != right_padded.shape:
        raise ValueError(
            f"row-wise product operands must share a shape, got {left_padded.shape} "
            f"vs {right_padded.shape}"
        )
    machine = state.machine
    ranges = split_rows_evenly(left_padded.shape[0], machine.n_ranks)
    contributions = {}
    for proc, (start, stop) in enumerate(ranges):
        t0 = time.perf_counter()
        local = left_padded[start:stop].T @ right_padded[start:stop]
        elapsed = time.perf_counter() - t0
        tracker = machine.tracker(proc)
        tracker.add_flops(category, 2 * (stop - start) * state.rank * state.rank)
        tracker.add_seconds(category, elapsed)
        contributions[proc] = local
    reduced = machine.all_reduce(contributions, list(range(machine.n_ranks)))
    return reduced[0]


def zero_delta_factors(state: ParallelState) -> list[DistributedFactor]:
    """Distributed all-zero factor steps (one per mode).

    The deltas share each factor's row partition so non-uniform sparse
    layouts keep their padded block heights.
    """
    deltas = []
    for mode, df in enumerate(state.dist_factors):
        blocks = [np.zeros((df.block_rows, df.rank)) for _ in range(state.grid.dims[mode])]
        deltas.append(DistributedFactor(mode, df.rank, state.grid, blocks,
                                        df.partition))
    return deltas


def compute_gamma(state: ParallelState, mode: int) -> np.ndarray:
    """``Gamma^(mode)`` (Eq. 1), computed redundantly on every rank."""
    t0 = time.perf_counter()
    gamma = hadamard_all_but(state.grams, mode)
    elapsed = time.perf_counter() - t0
    flops = max(len(state.grams) - 2, 0) * state.rank * state.rank
    _charge_all_ranks_flops(state.machine, "hadamard", flops, elapsed)
    return gamma


def _solve_chunks(
    state: ParallelState,
    gamma: np.ndarray,
    chunks: Dict[int, np.ndarray],
    group: Sequence[int],
    rule=None,
    factor_block: np.ndarray | None = None,
    mode: int | None = None,
) -> Dict[int, np.ndarray]:
    """Apply the update rule to each rank's row chunk, charging its cost.

    With the default exact least-squares update, ``distributed_solve=True``
    models the paper's ScaLAPACK-style distributed factorization (the R^3
    cost is shared by the group, at the price of extra latency);
    ``False`` models the PLANC approach where every rank factorizes ``Gamma``
    redundantly.  A non-default :class:`~repro.core.updates.UpdateRule` is
    applied per chunk instead — every registered rule is row-separable, and
    it charges its own flops through the rank's tracker (rules like HALS have
    no shared R^3 factorization, so ``distributed_solve`` does not apply).
    """
    machine = state.machine
    rank_r = state.rank
    solved: Dict[int, np.ndarray] = {}
    group = list(group)
    if rule is not None and rule.name != "least_squares":
        if factor_block is None:
            raise ValueError("factor_block is required for non-least-squares rules")
        ranges = split_rows_evenly(factor_block.shape[0], len(group))
        for proc, (start, stop) in zip(group, ranges):
            solved[proc] = rule.update_rows(
                mode, gamma, chunks[proc],
                factor_block[start:stop],
                tracker=machine.tracker(proc),
            )
        return solved
    for proc in group:
        chunk = chunks[proc]
        t0 = time.perf_counter()
        solved[proc] = solve_normal_equations(gamma, chunk)
        elapsed = time.perf_counter() - t0
        tracker = machine.tracker(proc)
        if state.distributed_solve:
            tracker.add_flops("solve", rank_r**3 // (3 * len(group)) + 2 * chunk.shape[0] * rank_r**2)
            if len(group) > 1:
                tracker.add_messages(state.solve_latency_messages * max(len(group).bit_length() - 1, 0))
                tracker.add_horizontal_words(rank_r * rank_r)
        else:
            tracker.add_flops("solve", rank_r**3 // 3 + 2 * chunk.shape[0] * rank_r**2)
        tracker.add_seconds("solve", elapsed)
    return solved


def _run_on_ranks(state: ParallelState, *command) -> Dict[int, np.ndarray | None]:
    """Submit one kernel command to every rank, then collect every result.

    A simulated rank computes inside ``submit``; a process rank posts the
    command there, so every worker's kernel runs before any is awaited.
    """
    for proc in state.grid.ranks():
        state.ranks[proc].submit(*command)
    return {proc: state.ranks[proc].collect() for proc in state.grid.ranks()}


def parallel_mode_update(
    state: ParallelState,
    mode: int,
    contributions: Dict[int, np.ndarray] | None = None,
    rule=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One mode update of Algorithm 3 (lines 12-18).

    Parameters
    ----------
    state:
        The parallel run state.
    mode:
        Mode being updated.
    contributions:
        Optional pre-computed per-rank local MTTKRP contributions (used by the
        PP driver, whose contributions come from the PP operators instead of
        the dimension tree).  When omitted they are obtained from each rank's
        MTTKRP engine.
    rule:
        Optional :class:`~repro.core.updates.UpdateRule` applied to each
        rank's reduce-scattered row chunk (default: the exact least-squares
        solve).  Rules are row-separable, so the parallel iterates match the
        sequential driver running the same rule.

    Returns
    -------
    (gamma, summed_mttkrp):
        ``Gamma^(mode)`` and the globally summed (padded) MTTKRP ``M^(mode)``,
        which the caller needs for the residual of Eq. (3).
    """
    grid = state.grid
    machine = state.machine
    gamma = compute_gamma(state, mode)
    if contributions is None:
        contributions = _run_on_ranks(state, "mttkrp", mode)

    new_blocks: list[np.ndarray] = []
    summed_blocks: list[np.ndarray] = []
    gram_contribs: Dict[int, np.ndarray] = {}
    for group in grid.slice_groups(mode):
        group_contribs = {proc: contributions[proc] for proc in group}
        chunks = machine.reduce_scatter_rows(group_contribs, group)
        summed_blocks.append(np.concatenate([chunks[proc] for proc in group], axis=0))
        solved_chunks = _solve_chunks(
            state, gamma, chunks, group, rule=rule,
            factor_block=state.dist_factors[mode].local_block_for(group[0]),
            mode=mode,
        )
        gathered = machine.all_gather_rows(solved_chunks, group)
        new_block = gathered[group[0]]
        new_blocks.append(new_block)
        # each rank's Gram contribution comes from the chunk of rows it owns
        for proc in group:
            chunk = solved_chunks[proc]
            t0 = time.perf_counter()
            local_gram = chunk.T @ chunk
            elapsed = time.perf_counter() - t0
            tracker = machine.tracker(proc)
            tracker.add_flops("others", 2 * chunk.shape[0] * state.rank * state.rank)
            tracker.add_seconds("others", elapsed)
            gram_contribs[proc] = local_gram

    for block_index, block in enumerate(new_blocks):
        state.dist_factors[mode].set_block(block_index, block)
    for proc in grid.ranks():
        state.ranks[proc].set_factor(mode, state.dist_factors[mode].local_block_for(proc))

    reduced = machine.all_reduce(gram_contribs, list(grid.ranks()))
    state.grams[mode] = reduced[0]

    summed_mttkrp = np.concatenate(summed_blocks, axis=0)
    return gamma, summed_mttkrp


class ParallelRun(SweepRun):
    """The parallel substrate of :func:`~repro.core.loop.run_sweeps`.

    An exact sweep is Algorithm 3: :func:`parallel_mode_update` per mode under
    ``rule`` (default exact least squares).  A PP phase is Algorithm 4: every
    rank builds its pairwise operators from its own block (local PP-init,
    line 2), and each approximated mode update reduce-scatters the ranks'
    local first-order MTTKRPs (line 9).  The factor steps are distributed
    like the factors.
    """

    def __init__(self, state: ParallelState, rule=None):
        self.state, self.rule = state, rule

    def snapshot(self):
        return self.state.machine.snapshot_costs()

    def costs(self, snapshot):
        machine = self.state.machine
        critical = CostTracker.max_over(machine.costs_since(snapshot))
        return (critical.seconds_by_category, critical.flops_by_category,
                critical.modeled_time(machine.params))

    def _residual(self, last_summed: np.ndarray) -> float:
        state = self.state
        return residual_from_mttkrp(
            state.norm_t, last_summed, state.dist_factors[-1].padded_global(),
            state.grams, last_mode=state.order - 1,
        )

    def _set_step(self, mode: int, reference: list[DistributedFactor]) -> None:
        current = self.state.dist_factors[mode]
        for x in range(self.state.grid.dims[mode]):
            self.steps[mode].set_block(x, current.block(x) - reference[mode].block(x))

    def exact_sweep(self, track_step: bool) -> float:
        state = self.state
        if track_step:
            before, grams_before = [df.copy() for df in state.dist_factors], list(state.grams)
        for mode in range(state.order):
            _, summed = parallel_mode_update(state, mode, rule=self.rule)
            if mode == 0 and track_step:
                # the summed M^(0) is exact for the factors the sweep starts from
                self._start = (summed, before[0], grams_before)
        residual = self._residual(summed)
        if track_step:
            self.steps = zero_delta_factors(state)
            for mode in range(state.order):
                self._set_step(mode, before)
        return residual

    def start_residual(self) -> float:
        summed, factor, grams = self._start
        return residual_from_mttkrp(self.state.norm_t, summed, factor.padded_global(),
                                    grams, last_mode=0)

    def pp_init(self) -> None:
        # local PP-init of Algorithm 4 (line 2): every rank checkpoints its
        # factor blocks and builds its pairwise operators from its own block
        # as descents off its tree provider's cache (PairwiseOperators.build)
        state = self.state
        self.checkpoint = [df.copy() for df in state.dist_factors]
        self.steps = zero_delta_factors(state)
        _run_on_ranks(state, "pp_build")
        self.delta_grams = [np.zeros((state.rank, state.rank)) for _ in range(state.order)]

    def _contributions(self, mode: int) -> Dict[int, np.ndarray]:
        """Per-rank approximated MTTKRP contributions for one mode update.

        Each rank contributes its local ``M_p^(mode) + sum_i U^(mode,i)`` plus
        its share of the (global, cheap) second-order correction ``V^(mode)``
        (:meth:`~repro.distributed.rank.RankKernels.pp_contrib`), so that
        summing the contributions over the mode's processor slice reproduces
        Eq. (5) exactly.  Only the ``R x R`` accumulator goes to the ranks.
        """
        state = self.state
        # second-order accumulator (R x R), identical on every rank (redundant compute)
        t0 = time.perf_counter()
        accumulator, hadamard_flops = second_order_accumulator(
            mode, state.grams, self.delta_grams)
        elapsed = time.perf_counter() - t0
        for proc in state.grid.ranks():
            tracker = state.machine.tracker(proc)
            tracker.add_flops("hadamard", hadamard_flops)
            tracker.add_seconds("hadamard", elapsed)
        group_size = len(state.grid.slice_groups(mode)[0])
        return _run_on_ranks(state, "pp_contrib", mode, accumulator, group_size)

    def approx_sweep(self) -> float:
        state = self.state
        for mode in range(state.order):
            _, summed = parallel_mode_update(
                state, mode, contributions=self._contributions(mode))
            # refresh the distributed step and its Gram product (Eq. 8)
            self._set_step(mode, self.checkpoint)
            self.delta_grams[mode] = allreduce_rowwise_product(
                state, state.dist_factors[mode].padded_global(),
                self.steps[mode].padded_global(),
            )
        return self._residual(summed)

    def factor_steps(self):
        # gathers the global factors: once per approximated sweep
        return ([df.padded_global() for df in self.state.dist_factors],
                [step.padded_global() for step in self.steps])

    def save(self):
        # the Gram matrices are replaced, never written in place: a list copy will do
        return [df.copy() for df in self.state.dist_factors], list(self.state.grams)

    def restore(self, saved) -> None:
        state = self.state
        factors, grams = saved
        for mode, saved_factor in enumerate(factors):
            factor = state.dist_factors[mode]
            for x in range(state.grid.dims[mode]):
                factor.set_block(x, saved_factor.block(x))
            # republish to every rank (a worker's shared panel too)
            for proc in state.grid.ranks():
                state.ranks[proc].set_factor(mode, factor.local_block_for(proc))
        state.grams[:] = grams

    def factors(self) -> list[np.ndarray]:
        return [df.to_global() for df in self.state.dist_factors]


def solve_parallel(tensor, opts: ParallelOptions, *,
                   pp: tuple[float, int] | None = None,
                   record_sweeps: bool = True,
                   callback: Callable[[int, list[np.ndarray], float], None] | None = None,
                   **setup) -> ParallelALSResult:
    """The body of both parallel drivers: distribute, run the one sweep loop
    on a :class:`ParallelRun`, release the substrate, report.

    ``opts`` is the run's :class:`~repro.core.options.ParallelOptions` (or
    its PP subclass); ``setup`` holds the remaining keywords of
    :func:`setup_parallel_state` (``machine``, ``params``,
    ``initial_factors``, ``max_cache_bytes``).
    """
    rule = make_update_rule(opts.update)
    state = setup_parallel_state(tensor, opts, **setup)
    run = ParallelRun(state, rule)
    # the finally releases process-execution workers and shared segments on
    # success, failure and KeyboardInterrupt alike (no-op when simulated)
    try:
        outcome = run_sweeps(run, n_sweeps=opts.n_sweeps, tol=opts.tol, pp=pp,
                             record_sweeps=record_sweeps, callback=callback)
    finally:
        state.close()
    options = {"rank": opts.rank, "n_sweeps": opts.n_sweeps, "tol": opts.tol}
    if pp is not None:
        options["pp_tol"] = opts.pp_tol
    options.update({
        "mttkrp": opts.mttkrp,
        "grid": tuple(state.grid.dims),
        "distributed_solve": opts.distributed_solve,
        "update": opts.update,
        "partitioner": state.dist_tensor.partition.name,
        "execution": type(state.machine).__name__,
    })
    critical_path = state.machine.critical_path_tracker()
    return ParallelALSResult(
        factors=run.factors(),
        tracker=critical_path,
        options=options,
        grid_dims=tuple(state.grid.dims),
        per_sweep_modeled_seconds=outcome.modeled_seconds,
        critical_path=critical_path,
        **outcome.result_fields(),
    )
