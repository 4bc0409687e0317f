"""Shared machinery of the parallel drivers (Algorithms 3 and 4).

The drivers are written as BSP supersteps over a
:class:`~repro.comm.simulated.SimulatedMachine`: local kernels run per rank on
that rank's tensor block and factor blocks (recording their flops and wall
time into the rank's cost tracker), and the collectives of Algorithm 3 (lines
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
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.comm.simulated import SimulatedMachine
from repro.core.initialization import init_factors
from repro.core.loop import SweepRun, run_sweeps
from repro.core.normal_equations import solve_normal_equations
from repro.core.options import ParallelOptions
from repro.core.pp_corrections import second_order_accumulator
from repro.core.results import ParallelALSResult
from repro.core.updates import make_update_rule
from repro.distributed.dist_factor import DistributedFactor
from repro.distributed.dist_tensor import DistributedTensor
from repro.distributed.sparse import DistSparseTensor
from repro.grid.distribution import split_rows_evenly
from repro.grid.processor_grid import ProcessorGrid
from repro.machine.collective_costs import reduce_scatter_cost
from repro.machine.cost_tracker import CostTracker
from repro.machine.params import MachineParams
from repro.tensor.norms import residual_from_mttkrp
from repro.tensor.products import hadamard_all_but
from repro.trees.base import MTTKRPProvider
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider
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
    providers: Dict[int, MTTKRPProvider]
    grams: List[np.ndarray]
    norm_t: float
    rank: int
    distributed_solve: bool = True
    solve_latency_messages: int = 2
    #: who sums the per-rank MTTKRP panels: ``"master"`` (default) or
    #: ``"worker"`` (shared-memory reduction tree; process execution only)
    collectives: str = "master"
    extra: dict = field(default_factory=dict)
    #: the :class:`~repro.distributed.runtime.ProcessRuntime` behind the
    #: providers when executing on a ProcessMachine (``None`` when simulated)
    runtime: object | None = None
    #: whether :func:`setup_parallel_state` created the machine itself (and
    #: :meth:`close` should therefore shut it down)
    owns_machine: bool = False

    @property
    def order(self) -> int:
        return self.grid.order

    def global_factors(self) -> list[np.ndarray]:
        """Unpadded global factor matrices."""
        return [df.to_global() for df in self.dist_factors]

    def critical_modeled_time(self) -> float:
        return self.machine.modeled_time()

    def close(self) -> None:
        """Release process-execution resources (idempotent; simulated: no-op).

        Detaches the shared-memory runtime (dropping worker state and
        unlinking the factor/output panels) and, when the machine was created
        by :func:`setup_parallel_state` rather than passed in, shuts the
        worker pool down too.  The drivers call this in a ``finally`` so
        segments are reclaimed on success, failure and interrupt alike.
        """
        if self.runtime is not None:
            self.runtime.detach()
        if self.owns_machine and hasattr(self.machine, "close"):
            self.machine.close()


def _charge_all_ranks_flops(machine: SimulatedMachine, category: str, flops: int,
                            seconds: float = 0.0) -> None:
    for rank in range(machine.n_ranks):
        tracker = machine.tracker(rank)
        tracker.add_flops(category, flops)
        if seconds:
            tracker.add_seconds(category, seconds)


def _allreduce_gram(state: ParallelState, mode: int) -> np.ndarray:
    """Gram matrix of factor ``mode`` via per-rank row chunks + All-Reduce.

    Mirrors lines 6-7 / 16-17 of Algorithm 3: the factor rows are distributed
    over all ``P`` processors, each computes the Gram of its chunk, and an
    All-Reduce over all processors replicates the result.
    """
    machine = state.machine
    factor = state.dist_factors[mode].padded_global()
    ranges = split_rows_evenly(factor.shape[0], machine.n_ranks)
    contributions = {}
    for rank, (start, stop) in enumerate(ranges):
        chunk = factor[start:stop]
        t0 = time.perf_counter()
        local_gram = chunk.T @ chunk
        elapsed = time.perf_counter() - t0
        tracker = machine.tracker(rank)
        tracker.add_flops("others", 2 * chunk.shape[0] * state.rank * state.rank)
        tracker.add_seconds("others", elapsed)
        contributions[rank] = local_gram
    reduced = machine.all_reduce(contributions, list(range(machine.n_ranks)))
    return reduced[0]


def setup_parallel_state(
    tensor: np.ndarray | DistributedTensor | DistSparseTensor,
    options: ParallelOptions,
    *,
    machine: SimulatedMachine | None = None,
    params: MachineParams | None = None,
    initial_factors: Sequence[np.ndarray] | None = None,
    max_cache_bytes: int | None = None,
    partition_seed: int | np.random.Generator | None = None,
) -> ParallelState:
    """Distribute the tensor and factors and build the per-rank MTTKRP engines.

    ``options`` is the run's :class:`~repro.core.options.ParallelOptions`
    (grid, local engine, seed, solve model, partitioner, substrate and
    collectives).  ``tensor`` may be dense (an ndarray or a pre-built
    :class:`~repro.distributed.dist_tensor.DistributedTensor`) or sparse (a
    :class:`~repro.sparse.CooTensor` or a pre-built
    :class:`~repro.distributed.sparse.DistSparseTensor`).  Sparse inputs are
    partitioned by ``options.partitioner`` (see
    :func:`repro.grid.balance.make_partition`); the per-rank MTTKRP engines
    then come from the sparse registry, so ``mttkrp="dt"``/``"msdt"`` build
    CSF-based semi-sparse dimension trees on each rank's own block.

    ``options.execution`` selects the substrate when no ``machine`` is
    passed: ``"simulated"`` (logical ranks in-process, bit-identical to real
    distributed execution) or ``"process"`` (a
    :class:`~repro.comm.procs.ProcessMachine` with one spawned worker per
    rank and shared-memory factor panels).  An explicit ``machine`` always
    wins; a :class:`~repro.comm.procs.ProcessMachine` instance routes the
    per-rank engines through :class:`~repro.distributed.runtime.ProcessRuntime`
    proxies either way.  Callers must ``state.close()`` when done so worker
    state and shared segments are reclaimed (the drivers do this in a
    ``finally``).

    ``options.collectives="worker"`` lets the workers of a process machine
    sum the per-rank MTTKRP panels among themselves through shared memory
    (binomial tree over the output panels, barriered by the command queues),
    so the master reads one summed panel per slice group instead of every
    rank's; it requires process execution.
    """
    grid = ProcessorGrid(options.grid)
    rank = options.rank
    if isinstance(tensor, (DistributedTensor, DistSparseTensor)):
        if tensor.grid != grid:
            raise ValueError("distributed tensor was built for a different grid")
        dist_tensor = tensor
        global_shape = tensor.global_shape
    elif is_sparse_tensor(tensor):
        if tensor.ndim != grid.order:
            raise ValueError(
                f"tensor order {tensor.ndim} does not match grid order {grid.order}"
            )
        dist_tensor = DistSparseTensor.from_coo(
            tensor, grid, partitioner=options.partitioner, seed=partition_seed
        )
        global_shape = tensor.shape
    else:
        tensor = check_dense_tensor(tensor, min_order=2)
        if tensor.ndim != grid.order:
            raise ValueError(
                f"tensor order {tensor.ndim} does not match grid order {grid.order}"
            )
        dist_tensor = DistributedTensor.from_dense(tensor, grid)
        global_shape = tensor.shape

    owns_machine = machine is None
    if machine is None:
        if options.execution == "process":
            from repro.comm.procs import ProcessMachine

            machine = ProcessMachine(grid.size, params=params)
        else:
            machine = SimulatedMachine(grid.size, params=params)
    elif machine.n_ranks != grid.size:
        raise ValueError(
            f"machine has {machine.n_ranks} ranks but grid needs {grid.size}"
        )

    if initial_factors is None:
        factors = init_factors(global_shape, rank, seed=options.seed, method="uniform")
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in
                   check_factor_matrices(initial_factors, shape=global_shape, rank=rank)]

    partition = getattr(dist_tensor, "partition", None)
    dist_factors = [
        DistributedFactor.from_global(
            factors[mode], mode, grid,
            partition=None if partition is None else partition.modes[mode],
        )
        for mode in range(grid.order)
    ]

    from repro.comm.procs import ProcessMachine

    runtime = None
    if isinstance(machine, ProcessMachine):
        from repro.distributed.runtime import ProcessRuntime

        try:
            runtime = ProcessRuntime(
                machine, grid, dist_tensor, dist_factors, options.mttkrp,
                max_cache_bytes=max_cache_bytes,
            )
        except BaseException:
            if owns_machine:
                machine.close()
            raise
        providers: Dict[int, MTTKRPProvider] = runtime.providers
    else:
        if options.collectives == "worker":
            raise ValueError(
                "collectives='worker' needs real workers to reduce in — "
                "use execution='process' or pass a ProcessMachine"
            )
        providers = {}
        for proc in grid.ranks():
            local_factors = [dist_factors[m].local_block_for(proc)
                             for m in range(grid.order)]
            providers[proc] = make_provider(
                options.mttkrp,
                dist_tensor.local_block(proc),
                local_factors,
                tracker=machine.tracker(proc),
                max_cache_bytes=max_cache_bytes,
            )

    state = ParallelState(
        grid=grid,
        machine=machine,
        dist_tensor=dist_tensor,
        dist_factors=dist_factors,
        providers=providers,
        grams=[np.eye(rank)] * grid.order,
        norm_t=dist_tensor.norm(),
        rank=rank,
        distributed_solve=options.distributed_solve,
        collectives=options.collectives,
        runtime=runtime,
        owns_machine=owns_machine,
    )
    # initial Gram matrices + All-Reduce (Algorithm 3 lines 4-9)
    state.grams = [_allreduce_gram(state, mode) for mode in range(grid.order)]
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

    The deltas share each factor's row partition so non-uniform / permuted
    sparse layouts keep their padded block heights.
    """
    deltas = []
    for mode, df in enumerate(state.dist_factors):
        blocks = [np.zeros((df.block_rows, df.rank)) for _ in range(state.grid.dims[mode])]
        deltas.append(DistributedFactor(mode, df.global_rows, df.rank, state.grid,
                                        blocks, partition=df.partition))
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


def parallel_mode_update(
    state: ParallelState,
    mode: int,
    contributions: Dict[int, np.ndarray] | None = None,
    rule=None,
    panel_rows: Dict[int, int] | None = None,
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
    panel_rows:
        Per-rank row counts of results already sitting in the workers' shared
        output panels (worker-side collectives only; the PP driver passes
        these after ``pp_contrib`` so no panel ever crosses to the master
        before the reduction tree).

    Under ``state.collectives == "worker"`` the per-rank panels never travel
    to the master individually: the workers sum them in shared memory
    (:meth:`~repro.distributed.runtime.ProcessRuntime.reduce_blocks`) and the
    master reads one summed block per slice group, charging the same modeled
    Reduce-Scatter cost as the master-driven path.

    Returns
    -------
    (gamma, summed_mttkrp):
        ``Gamma^(mode)`` and the globally summed (padded) MTTKRP ``M^(mode)``,
        which the caller needs for the residual of Eq. (3).
    """
    grid = state.grid
    machine = state.machine
    gamma = compute_gamma(state, mode)

    use_worker = (
        state.collectives == "worker"
        and state.runtime is not None
        and contributions is None
    )
    reduced_panels: Dict[int, np.ndarray] = {}
    slice_groups = grid.slice_groups(mode)
    if use_worker:
        if panel_rows is None:
            # submit-all-then-collect, but leave every result in its shared
            # panel: replies carry only the row count
            for proc in grid.ranks():
                state.providers[proc].mttkrp_submit(mode)
            panel_rows = {
                proc: state.providers[proc].mttkrp_result_rows()
                for proc in grid.ranks()
            }
        rows_by_group = [panel_rows[group[0]] for group in slice_groups]
        reduced_panels = state.runtime.reduce_blocks(
            [list(group) for group in slice_groups], rows_by_group
        )
    elif contributions is None:
        # submit-all-then-collect: on a ProcessMachine every rank's local
        # MTTKRP runs concurrently in its worker; simulated providers compute
        # inline (hasattr keeps the sequential path allocation-free)
        contributions = {}
        pending: list[int] = []
        for proc in grid.ranks():
            provider = state.providers[proc]
            if hasattr(provider, "mttkrp_submit"):
                provider.mttkrp_submit(mode)
                pending.append(proc)
            else:
                contributions[proc] = provider.mttkrp(mode)
        for proc in pending:
            contributions[proc] = state.providers[proc].mttkrp_result()

    new_blocks: list[np.ndarray] = []
    summed_blocks: list[np.ndarray] = []
    gram_contribs: Dict[int, np.ndarray] = {}
    for block_index, group in enumerate(slice_groups):
        if use_worker:
            summed = reduced_panels[block_index]
            machine.charge_collective(
                group, *reduce_scatter_cost(summed.size, len(group))
            )
            ranges = split_rows_evenly(summed.shape[0], len(group))
            chunks = {
                proc: summed[start:stop].copy()
                for proc, (start, stop) in zip(group, ranges)
            }
            summed_blocks.append(summed)
        else:
            group_contribs = {proc: contributions[proc] for proc in group}
            chunks = machine.reduce_scatter_rows(group_contribs, group)
            summed_blocks.append(
                np.concatenate([chunks[proc] for proc in group], axis=0)
            )
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
        state.providers[proc].set_factor(
            mode, state.dist_factors[mode].local_block_for(proc)
        )

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
        state = self.state
        self.checkpoint = [df.copy() for df in state.dist_factors]
        self.steps = zero_delta_factors(state)
        self.operators = self._build_local_operators()
        self.delta_grams = [np.zeros((state.rank, state.rank)) for _ in range(state.order)]

    def _build_local_operators(self) -> Dict[int, PairwiseOperators]:
        """Local-PP-init of Algorithm 4 (line 2): one operator set per processor.

        On sparse per-rank blocks the operators come out of each rank's
        CSF-based tree provider as semi-sparse descents
        (:mod:`repro.trees.sparse_pp`) and stay in fiber form; intermediates
        still valid from the preceding exact sweep are reused rank-locally.

        Remote providers (process execution) build their operators inside the
        worker instead, concurrently across ranks; the worker also checkpoints
        its factors so later PP contributions can recompute the steps locally.
        Their dict entry is the provider itself — :meth:`_contributions`
        dispatches on it, never on a master-side operator set.
        """
        state = self.state
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
                    provider.tensor, provider.factors,
                    tracker=state.machine.tracker(proc), provider=provider,
                )
        return operators

    def _contributions(
        self, mode: int,
    ) -> tuple[Dict[int, np.ndarray] | None, Dict[int, int] | None]:
        """Per-rank approximated MTTKRP contributions for one mode update.

        Each rank contributes its local ``M_p^(mode) + sum_i U^(mode,i)`` plus
        its share of the (global, cheap) second-order correction ``V^(mode)``,
        so that summing the contributions over the mode's processor slice
        reproduces Eq. (5) exactly.

        Returns ``(contributions, panel_rows)``: normally the per-rank arrays
        and ``None``.  Under worker-side collectives the results stay in the
        workers' shared output panels — the return is ``(None, per-rank row
        counts)`` and :func:`parallel_mode_update` reduces the panels in place.
        """
        state = self.state
        machine = state.machine
        rank_r = state.rank

        # second-order accumulator (R x R), identical on every rank (redundant compute)
        t0 = time.perf_counter()
        accumulator, hadamard_flops = second_order_accumulator(
            mode, state.grams, self.delta_grams)
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
            # the worker recomputes its steps from the pp_build checkpoint, so
            # only the R x R accumulator crosses the process boundary
            state.providers[proc].pp_contrib_submit(mode, accumulator, group_size)
        for proc in remote:
            contributions[proc] = state.providers[proc].pp_contrib_result()
        for proc in state.grid.ranks():
            if proc in remote:
                continue
            tracker = machine.tracker(proc)
            local = self.operators[proc].first_order_mttkrp(
                mode,
                [None if other == mode else step.local_block_for(proc)
                 for other, step in enumerate(self.steps)],
                tracker=tracker,
            )
            # this rank's share of V^(mode): rows of its factor block times the
            # accumulator, divided by the slice size so the Reduce-Scatter sum
            # contributes V exactly once
            factor_block = state.dist_factors[mode].local_block_for(proc)
            t0 = time.perf_counter()
            v_block = factor_block @ accumulator
            elapsed = time.perf_counter() - t0
            tracker.add_flops("others", 2 * factor_block.shape[0] * rank_r * rank_r
                              // max(group_size, 1))
            tracker.add_seconds("others", elapsed)
            contributions[proc] = local + v_block / max(group_size, 1)
        return contributions, None

    def approx_sweep(self) -> float:
        state = self.state
        for mode in range(state.order):
            contributions, panel_rows = self._contributions(mode)
            _, summed = parallel_mode_update(
                state, mode, contributions=contributions, panel_rows=panel_rows)
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
            # republish to every rank's provider (a worker's shared panel too)
            for proc in state.grid.ranks():
                state.providers[proc].set_factor(mode, factor.local_block_for(proc))
        state.grams[:] = grams

    def factors(self) -> list[np.ndarray]:
        return self.state.global_factors()


def solve_parallel(tensor, opts: ParallelOptions, *,
                   pp: tuple[float, int] | None = None,
                   record_sweeps: bool = True, **setup) -> ParallelALSResult:
    """The body of both parallel drivers: distribute, run the one sweep loop
    on a :class:`ParallelRun`, release the substrate, report.

    ``opts`` is the run's :class:`~repro.core.options.ParallelOptions` (or
    its PP subclass); ``setup`` holds the remaining keywords of
    :func:`setup_parallel_state` (``machine``, ``params``,
    ``initial_factors``, ``max_cache_bytes``, ``partition_seed``).
    """
    rule = make_update_rule(opts.update)
    state = setup_parallel_state(tensor, opts, **setup)
    run = ParallelRun(state, rule)
    # the finally releases process-execution workers and shared segments on
    # success, failure and KeyboardInterrupt alike (no-op when simulated)
    try:
        outcome = run_sweeps(run, n_sweeps=opts.n_sweeps, tol=opts.tol, pp=pp,
                             record_sweeps=record_sweeps)
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
        "partitioner": getattr(getattr(state.dist_tensor, "partition", None), "name", None),
        "execution": type(state.machine).__name__,
        "collectives": state.collectives,
    })
    return ParallelALSResult(
        factors=run.factors(),
        tracker=state.machine.critical_path_tracker(),
        options=options,
        grid_dims=tuple(state.grid.dims),
        per_sweep_modeled_seconds=outcome.modeled_seconds,
        critical_path=state.machine.critical_path_tracker(),
        **outcome.result_fields(),
    )
