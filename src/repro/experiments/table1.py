"""Table I — cost comparison of DT, MSDT and the PP kernels.

Two complementary views are produced:

* :func:`table1_rows` evaluates the leading-order formulas of Table I at a
  given ``(s, N, R, P)`` — the analytic table itself;
* :func:`measured_mttkrp_flops_per_sweep` runs the actual engines on a small
  tensor and reports the *measured* per-sweep MTTKRP flops, verifying that the
  implementations achieve the leading-order sequential costs of the table
  (``4 s^N R`` for DT, ``2N/(N-1) s^N R`` for MSDT, ``4 s^N R`` for the PP
  initialization, ``2N^2(s^2R + R^2)`` for the approximated step).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.initialization import init_factors
from repro.costs.mttkrp_costs import TABLE1_METHODS, mttkrp_costs_for
from repro.machine.cost_tracker import CostTracker
from repro.machine.params import MachineParams
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider

__all__ = ["table1_rows", "measured_mttkrp_flops_per_sweep"]


def table1_rows(
    s: float,
    order: int,
    rank: int,
    n_procs: int,
    params: MachineParams | None = None,
    methods: Sequence[str] = TABLE1_METHODS,
) -> list[dict]:
    """Evaluate every Table I row at the given problem/machine size."""
    params = params if params is not None else MachineParams.knl_like()
    rows = []
    for method in methods:
        costs = mttkrp_costs_for(method, s, order, rank, n_procs)
        row = costs.asdict()
        row["modeled_seconds"] = costs.modeled_time(params)
        rows.append(row)
    return rows


def measured_mttkrp_flops_per_sweep(
    shape: Sequence[int],
    rank: int,
    n_sweeps: int = 4,
    seed: int | None = 0,
) -> dict[str, float]:
    """Measured per-sweep MTTKRP flops of every engine on a random dense tensor.

    Returns the mean per-sweep tensor-contraction flops (TTM + mTTV categories)
    of the naive, DT and MSDT engines, plus the flops of one PP initialization
    and one PP approximated sweep, for comparison against the Table I
    leading-order terms (see ``tests/costs/test_table1_consistency.py``).
    """
    rng = np.random.default_rng(seed)
    tensor = rng.random(tuple(int(x) for x in shape))
    order = tensor.ndim
    results: dict[str, float] = {}

    def _contraction_flops(tracker: CostTracker) -> float:
        flops = tracker.flops_by_category
        return float(flops.get("ttm", 0) + flops.get("mttv", 0))

    for name in ("naive", "dt", "msdt"):
        tracker = CostTracker()
        factors = init_factors(shape, rank, seed=seed, method="uniform")
        provider = make_provider(name, tensor, factors, tracker=tracker)
        # warm-up sweep so cross-sweep amortization (MSDT) reaches steady state
        for _ in range(2):
            for mode in range(order):
                result = provider.mttkrp(mode)
                provider.set_factor(mode, result / max(np.linalg.norm(result), 1.0))
        start = tracker.snapshot()
        for _ in range(n_sweeps):
            for mode in range(order):
                result = provider.mttkrp(mode)
                provider.set_factor(mode, result / max(np.linalg.norm(result), 1.0))
        delta = tracker.diff_since(start)
        results[name] = _contraction_flops(delta) / n_sweeps

    # PP initialization step
    tracker = CostTracker()
    factors = init_factors(shape, rank, seed=seed, method="uniform")
    operators = PairwiseOperators.build(tensor, factors, tracker=tracker)
    results["pp-init"] = _contraction_flops(tracker)

    # one PP approximated sweep (first-order corrections only; the second-order
    # term is lower order in s)
    tracker = CostTracker()
    deltas = [1e-3 * np.asarray(f) for f in factors]
    for mode in range(order):
        operators.first_order_mttkrp(mode, deltas, tracker=tracker)
    results["pp-approx"] = _contraction_flops(tracker)
    return results
