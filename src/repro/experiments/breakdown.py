"""Per-sweep kernel time breakdown (Figures 3c-3f).

The paper splits every per-sweep time into TTM, mTTV, Hadamard, solve and
"others".  :func:`modeled_breakdown` produces the split from the analytic
sweep model at paper scale; :func:`executed_breakdown` runs the algorithms on
the simulated machine and reports the measured per-kernel wall-clock seconds
(recorded by the kernels themselves) of the slowest rank.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.options import ParallelOptions, ParallelPPOptions
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.costs.sweep_model import MODELED_METHODS, sweep_time_model
from repro.data.lowrank import random_low_rank_tensor
from repro.machine.params import MachineParams

__all__ = ["modeled_breakdown", "executed_breakdown", "BREAKDOWN_CATEGORIES"]

#: kernel categories of Fig. 3c-f
BREAKDOWN_CATEGORIES = ("ttm", "mttv", "hadamard", "solve", "others", "comm")


def modeled_breakdown(
    order: int,
    s_local: int,
    rank: int,
    grid: Sequence[int],
    methods: Sequence[str] = MODELED_METHODS,
    params: MachineParams | None = None,
) -> dict[str, dict[str, float]]:
    """Modeled per-category seconds for each method at one grid configuration."""
    params = params if params is not None else MachineParams.knl_like()
    n_procs = int(np.prod([int(d) for d in grid]))
    out: dict[str, dict[str, float]] = {}
    for method in methods:
        breakdown = sweep_time_model(method, s_local, order, rank, n_procs, params)
        out[method] = breakdown.category_seconds()
    return out


def _normalize(kernel_seconds: Mapping[str, float]) -> dict[str, float]:
    out = {cat: 0.0 for cat in BREAKDOWN_CATEGORIES}
    for cat, sec in kernel_seconds.items():
        if cat in out:
            out[cat] += sec
        else:
            out["others"] += sec
    return out


def executed_breakdown(
    order: int,
    s_local: int,
    rank: int,
    grid: Sequence[int],
    n_sweeps: int = 3,
    seed: int = 0,
    params: MachineParams | None = None,
    methods: Sequence[str] = ("planc", "dt", "msdt", "pp-init", "pp-approx"),
) -> dict[str, dict[str, float]]:
    """Measured per-kernel seconds (critical-path rank) for each method."""
    params = params if params is not None else MachineParams.knl_like()
    grid = tuple(int(d) for d in grid)
    shape = tuple(s_local * d for d in grid)
    tensor = random_low_rank_tensor(shape, rank=max(rank // 2, 2), noise=0.05, seed=seed)

    out: dict[str, dict[str, float]] = {}
    for method in methods:
        if method in ("planc", "dt", "msdt"):
            options = ParallelOptions(
                rank=rank, grid=grid, n_sweeps=n_sweeps, tol=0.0,
                mttkrp="dt" if method == "planc" else method, seed=seed,
                distributed_solve=(method != "planc"),
            )
            result = parallel_cp_als(tensor, options, params=params)
            sweeps = [s for s in result.sweeps if s.sweep_type == "als"]
        else:
            options = ParallelPPOptions(
                rank=rank, grid=grid, n_sweeps=4 * n_sweeps, tol=0.0,
                pp_tol=0.6, seed=seed,
            )
            result = parallel_pp_cp_als(tensor, options, params=params)
            wanted = "pp-init" if method == "pp-init" else "pp-approx"
            sweeps = [s for s in result.sweeps if s.sweep_type == wanted]
        if not sweeps:
            out[method] = {cat: 0.0 for cat in BREAKDOWN_CATEGORIES}
            continue
        accum = {cat: 0.0 for cat in BREAKDOWN_CATEGORIES}
        for record in sweeps:
            for cat, sec in _normalize(record.kernel_seconds).items():
                accum[cat] += sec
        out[method] = {cat: sec / len(sweeps) for cat, sec in accum.items()}
    return out
