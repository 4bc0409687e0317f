"""Modeled per-sweep times at arbitrary (paper-scale) problem sizes.

Figure 3 of the paper compares PLANC, DT, MSDT, the PP initialization step and
the PP approximated step on up to 1024 processors with local tensors of
400^3 / 75^4 per processor — far beyond what can be executed in this
repository's container.  :func:`sweep_time_model` composes the Table I MTTKRP
costs with the remaining per-sweep work (Hadamard chains, normal-equation
solves, Gram updates) under the alpha-beta-gamma-nu machine model so the
paper-scale curves can be regenerated; the executed small-scale runs validate
the model's shape (``docs/execution.rst``, "Measured vs modeled, and hop
calibration").

:func:`sparse_sweep_time_model` is the sparse counterpart for the distributed
sparse CP-ALS of :mod:`repro.distributed.sparse`: compute and vertical terms
scale with per-rank nonzeros (times the partitioner's imbalance factor) and
``R``, collective payloads with factor rows — never with the padded dense
block volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm import MACHINES
from repro.costs.mttkrp_costs import mttkrp_costs_for
from repro.grid.distribution import padded_block_size
from repro.machine.collective_costs import als_sweep_collective_cost, process_hop_cost
from repro.machine.params import MachineParams

__all__ = [
    "SweepCostBreakdown",
    "sweep_time_model",
    "sparse_sweep_time_model",
    "MODELED_METHODS",
    "SPARSE_MODELED_METHODS",
]

#: methods accepted by :func:`sweep_time_model` — the five bars of Fig. 3
MODELED_METHODS = ("planc", "dt", "msdt", "pp-init", "pp-approx")

#: sparse engines accepted by :func:`sparse_sweep_time_model`
SPARSE_MODELED_METHODS = ("naive", "dt", "msdt")


@dataclass(frozen=True)
class SweepCostBreakdown:
    """Modeled seconds of one sweep, split into the categories of Fig. 3c-f."""

    method: str
    ttm_seconds: float
    mttv_seconds: float
    hadamard_seconds: float
    solve_seconds: float
    others_seconds: float
    communication_seconds: float
    #: process-hop (IPC) seconds; zero except under ``execution="process"``
    hop_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.ttm_seconds
            + self.mttv_seconds
            + self.hadamard_seconds
            + self.solve_seconds
            + self.others_seconds
            + self.communication_seconds
            + self.hop_seconds
        )

    def category_seconds(self) -> dict[str, float]:
        categories = {
            "ttm": self.ttm_seconds,
            "mttv": self.mttv_seconds,
            "hadamard": self.hadamard_seconds,
            "solve": self.solve_seconds,
            "others": self.others_seconds,
            "comm": self.communication_seconds,
        }
        if self.hop_seconds != 0.0:
            categories["hop"] = self.hop_seconds
        return categories


def sweep_time_model(
    method: str,
    s_local: float,
    order: int,
    rank: int,
    n_procs: int,
    params: MachineParams | None = None,
) -> SweepCostBreakdown:
    """Modeled per-sweep time for one of the Fig. 3 methods.

    Parameters
    ----------
    method:
        ``"planc"`` (DT MTTKRP + fully redundant sequential solve, the PLANC
        baseline), ``"dt"``, ``"msdt"``, ``"pp-init"`` or ``"pp-approx"``.
    s_local:
        Per-processor local mode size (the paper's weak-scaling studies keep
        this fixed; the global mode size is ``s_local * P^(1/N)``).
    order, rank, n_procs:
        Tensor order ``N``, CP rank ``R`` and processor count ``P``.
    params:
        Machine parameters; KNL-like defaults when omitted.
    """
    method = method.lower().strip()
    if method not in MODELED_METHODS:
        raise ValueError(f"unknown method {method!r}; available: {MODELED_METHODS}")
    if params is None:
        params = MachineParams.knl_like()
    if s_local <= 0 or rank <= 0 or n_procs <= 0:
        raise ValueError("s_local, rank and n_procs must be positive")
    if order < 2:
        raise ValueError("order must be at least 2")

    s_global = s_local * n_procs ** (1.0 / order)
    cost_key = {"planc": "dt"}.get(method, method)
    kernel = mttkrp_costs_for(cost_key, s_global, order, rank, n_procs)

    local_tensor_words = s_local**order

    # --- split the MTTKRP flops into the TTM and mTTV kernels ----------------
    if method in ("planc", "dt", "msdt", "pp-init"):
        if method == "msdt":
            ttm_flops = 2.0 * order / (order - 1) * local_tensor_words * rank
        else:
            ttm_flops = 4.0 * local_tensor_words * rank
        mttv_flops = max(kernel.local_flops - ttm_flops, 0.0)
        # second-level contractions dominate the remaining mTTV work
        mttv_flops += 4.0 * local_tensor_words ** ((order - 1) / order) * rank
    else:  # pp-approx: no TTM at all, everything is (local) mTTV work
        ttm_flops = 0.0
        mttv_flops = kernel.local_flops

    transpose_words = 0.0
    if method == "pp-init" and order > 3:
        # Section IV: the PP operator tree needs explicit tensor transposes for
        # order > 3, which enlarges the leading constant of the vertical
        # communication of its mTTV kernels (this is why PP-init is slower
        # than a DT sweep in the paper's order-4 benchmarks).
        transpose_words = 2.0 * (order - 3) * local_tensor_words

    ttm_seconds = params.gamma * ttm_flops
    # the mTTV kernel is memory-bandwidth (vertical) bound — charge the larger
    # of its flop time and its memory-traffic time, as the paper's Section IV
    # analysis does
    streams_tensor = method in ("planc", "dt", "msdt", "pp-init")
    mttv_vertical_words = kernel.vertical_words - (local_tensor_words if streams_tensor else 0.0)
    mttv_seconds = max(
        params.gamma * mttv_flops,
        params.nu * max(mttv_vertical_words, 0.0),
    ) + params.nu * transpose_words
    # streaming the local tensor block itself is attributed to the TTM kernel
    ttm_seconds = max(ttm_seconds, params.nu * local_tensor_words) if ttm_flops > 0 else ttm_seconds

    # --- remaining per-sweep work --------------------------------------------
    hadamard_seconds = params.gamma * (order * max(order - 2, 1) * rank * rank)
    rows_per_proc = s_global / n_procs ** (1.0 / order)
    if method == "planc":
        solve_flops = order * (rank**3 / 3.0 + 2.0 * rows_per_proc * rank**2)
        solve_messages = 0.0
    else:
        solve_flops = order * (rank**3 / (3.0 * n_procs) + 2.0 * rows_per_proc * rank**2 / max(n_procs ** ((order - 1) / order), 1.0))
        solve_messages = 2.0 * order * math.log2(n_procs) if n_procs > 1 else 0.0
    solve_seconds = params.gamma * solve_flops + params.alpha * solve_messages

    others_seconds = params.gamma * (2.0 * order * rows_per_proc * rank**2)

    communication_seconds = (
        params.alpha * kernel.horizontal_messages + params.beta * kernel.horizontal_words
    )

    return SweepCostBreakdown(
        method=method,
        ttm_seconds=ttm_seconds,
        mttv_seconds=mttv_seconds,
        hadamard_seconds=hadamard_seconds,
        solve_seconds=solve_seconds,
        others_seconds=others_seconds,
        communication_seconds=communication_seconds,
    )


def sparse_sweep_time_model(
    method: str,
    nnz_local: float,
    shape: tuple[int, ...],
    rank: int,
    grid_dims: tuple[int, ...],
    imbalance: float = 1.0,
    fiber_ratio: float = 0.5,
    block_rows: tuple[int, ...] | None = None,
    params: MachineParams | None = None,
    execution: str = "simulated",
) -> SweepCostBreakdown:
    """Modeled per-sweep time of *sparse* distributed CP-ALS.

    The sparse analogue of :func:`sweep_time_model`: local MTTKRP work scales
    with the slowest rank's nonzero count ``nnz_local * imbalance`` and the
    rank ``R`` — never with the padded dense block volume — while the
    collective payloads scale with the factor rows each block spans
    (:func:`repro.machine.collective_costs.als_sweep_collective_cost`).

    Parameters
    ----------
    method:
        ``"naive"`` (COO recompute, ``~2 N (N-1) nnz R`` flops per sweep),
        ``"dt"`` (CSF semi-sparse dimension tree: two root contractions plus
        fiber-level work) or ``"msdt"`` (``N/(N-1)`` root contractions per
        sweep in steady state).
    nnz_local:
        Mean nonzeros per rank (``nnz / P``).
    imbalance:
        Max-over-mean per-rank nonzero ratio of the chosen partitioner
        (:attr:`repro.grid.balance.PartitionReport.imbalance`); the BSP
        critical path runs at the slowest rank's speed, so local work is
        multiplied by it.  ``1.0`` models a perfectly balanced partition.
    fiber_ratio:
        Fraction of nonzero-level work the fiber-compressed second tree
        levels retain (CSF fibers per nonzero); 0.5 is close to the 0.43
        fibers per nonzero of the 200^3, 1% tensor of ``BENCH_sparse.json``.
    block_rows:
        Per-mode padded factor-block heights; defaults to the uniform
        ``ceil(s_i / I_i)`` (pass a partition's
        :attr:`~repro.grid.balance.TensorPartition.padded_extents` to charge
        the padding a skewed partition induces).
    execution:
        A key of :data:`repro.comm.MACHINES`: ``"simulated"`` (default: the
        pure BSP model) or ``"process"``: also charge the per-sweep
        :func:`process_hop_cost` of real spawned workers at
        ``params.alpha_hop`` / ``params.beta_hop`` (reported as
        :attr:`SweepCostBreakdown.hop_seconds`).
    """
    method = method.lower().strip()
    execution = execution.lower().strip()
    if execution not in MACHINES:
        raise ValueError(
            f"unknown execution mode {execution!r}; available: {list(MACHINES)}"
        )
    if method not in SPARSE_MODELED_METHODS:
        raise ValueError(
            f"unknown sparse method {method!r}; available: {SPARSE_MODELED_METHODS}"
        )
    if params is None:
        params = MachineParams.knl_like()
    order = len(shape)
    if order < 2:
        raise ValueError("order must be at least 2")
    if nnz_local < 0 or rank <= 0:
        raise ValueError("nnz_local must be non-negative and rank positive")
    if imbalance < 1.0:
        raise ValueError("imbalance is max/mean and cannot be below 1.0")
    if not 0.0 <= fiber_ratio <= 1.0:
        raise ValueError("fiber_ratio must lie in [0, 1]")
    n_procs = 1
    for d in grid_dims:
        n_procs *= int(d)

    nnz_eff = float(nnz_local) * float(imbalance)
    coo_words = nnz_eff * (order + 1)  # int64 indices + value per nonzero

    if method == "naive":
        # recompute: per mode, gather N-1 factor rows and Hadamard-reduce
        ttm_flops = 2.0 * order * (order - 1) * nnz_eff * rank
        mttv_flops = 0.0
        vertical_words = order * (coo_words + nnz_eff * rank)
    elif method == "dt":
        # two first-level root contractions per sweep off the cached CSF
        ttm_flops = 4.0 * nnz_eff * rank
        # per-mode fiber-level segmented reductions on compressed intermediates
        mttv_flops = 2.0 * order * fiber_ratio * nnz_eff * rank
        vertical_words = 2.0 * coo_words + order * fiber_ratio * nnz_eff * rank
    else:  # msdt: N/(N-1) root contractions per sweep in steady state
        ttm_flops = 2.0 * order / (order - 1) * nnz_eff * rank
        mttv_flops = 2.0 * order * fiber_ratio * nnz_eff * rank
        vertical_words = (order / (order - 1)) * coo_words + order * fiber_ratio * nnz_eff * rank

    ttm_seconds = max(params.gamma * ttm_flops, params.nu * vertical_words)
    mttv_seconds = params.gamma * mttv_flops

    # factor-sized per-sweep work: identical to the dense path (factors stay dense)
    if block_rows is None:
        block_rows = tuple(padded_block_size(s, d) for s, d in zip(shape, grid_dims))
    hadamard_seconds = params.gamma * (order * max(order - 2, 1) * rank * rank)
    solve_flops = 0.0
    solve_messages = 0.0
    others_flops = 0.0
    for b, d in zip(block_rows, grid_dims):
        group = n_procs // int(d)
        rows_per_proc = float(b) / max(group, 1)
        solve_flops += rank**3 / (3.0 * max(group, 1)) + 2.0 * rows_per_proc * rank**2
        if group > 1:
            solve_messages += 2.0 * math.log2(group)
        others_flops += 2.0 * float(b) * rank**2
    solve_seconds = params.gamma * solve_flops + params.alpha * solve_messages
    others_seconds = params.gamma * others_flops

    messages, words = als_sweep_collective_cost(shape, grid_dims, rank, block_rows)
    communication_seconds = params.alpha * messages + params.beta * words

    hop_seconds = 0.0
    if execution == "process":
        hop_messages, hop_words = process_hop_cost(
            shape, grid_dims, rank, block_rows=block_rows
        )
        hop_seconds = params.alpha_hop * hop_messages + params.beta_hop * hop_words

    return SweepCostBreakdown(
        method=method,
        ttm_seconds=ttm_seconds,
        mttv_seconds=mttv_seconds,
        hadamard_seconds=hadamard_seconds,
        solve_seconds=solve_seconds,
        others_seconds=others_seconds,
        communication_seconds=communication_seconds,
        hop_seconds=hop_seconds,
    )
