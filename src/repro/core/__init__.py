"""CP-ALS drivers: sequential, pairwise-perturbation, and parallel variants.

* :func:`repro.core.cp_als.cp_als` — Algorithm 1 with a pluggable MTTKRP
  engine (naive / unfolding / dimension tree / MSDT).
* :func:`repro.core.pp_cp_als.pp_cp_als` — Algorithm 2 (pairwise
  perturbation), using MSDT for the exact sweeps as the paper's
  implementation does.
* :func:`repro.core.parallel_cp_als.parallel_cp_als` — Algorithm 3 on a
  simulated processor grid with local-MTTKRP dimension trees.
* :func:`repro.core.parallel_pp_cp_als.parallel_pp_cp_als` — Algorithm 4, the
  communication-efficient parallel PP algorithm contributed by the paper.
* :func:`repro.core.nn_cp_als.nn_cp_als` — nonnegative CP (HALS or
  multiplicative updates) on the same engines via the shared sweep kernel.
* :func:`repro.core.masked_cp_als.masked_cp_als` — masked/weighted ALS over
  an observed-entry pattern (missing-data tensors).
* :func:`repro.core.multi_start.multi_start` — batched best-of-K multi-start
  driver over any registered sequential algorithm, with deterministic
  per-start seeds and optional worker threads sharing one contraction-plan
  cache.

Every driver runs the one sweep loop of :mod:`repro.core.loop` (stop rule,
PP phases, sweep records) over a sequential or a parallel substrate.  The
per-mode factor updates live in :mod:`repro.core.updates` (the
:class:`~repro.core.updates.UpdateRule` objects plus the shared
:func:`~repro.core.updates.sweep` kernel every sequential driver runs), and
the name → (driver, options-class) registry in :mod:`repro.core.algorithms`.
"""

from repro.core.options import (
    ALSOptions,
    PPOptions,
    NNOptions,
    MaskedOptions,
    ParallelOptions,
    ParallelPPOptions,
)
from repro.core.results import ALSResult, ParallelALSResult, ResultBase, SweepRecord
from repro.core.initialization import init_factors
from repro.core.normal_equations import gram_matrix, gamma_chain, solve_normal_equations
from repro.core.pp_corrections import (
    first_order_correction,
    second_order_correction,
    delta_gram,
    pp_step_within_tolerance,
)
from repro.core.updates import (
    UpdateRule,
    make_update_rule,
    available_update_rules,
    sweep,
)
from repro.core.cp_als import cp_als
from repro.core.pp_cp_als import pp_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.masked_cp_als import MaskedALSResult, masked_cp_als
from repro.core.algorithms import (
    AlgorithmSpec,
    algorithm_for_options,
    available_algorithms,
    get_algorithm,
    options_class_for,
)
from repro.core.multi_start import MultiStartResult, multi_start, start_seeds
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als

__all__ = [
    "ALSOptions",
    "PPOptions",
    "NNOptions",
    "MaskedOptions",
    "ParallelOptions",
    "ParallelPPOptions",
    "ALSResult",
    "MaskedALSResult",
    "ParallelALSResult",
    "ResultBase",
    "SweepRecord",
    "UpdateRule",
    "make_update_rule",
    "available_update_rules",
    "sweep",
    "AlgorithmSpec",
    "algorithm_for_options",
    "available_algorithms",
    "get_algorithm",
    "options_class_for",
    "init_factors",
    "gram_matrix",
    "gamma_chain",
    "solve_normal_equations",
    "first_order_correction",
    "second_order_correction",
    "delta_gram",
    "pp_step_within_tolerance",
    "cp_als",
    "pp_cp_als",
    "nn_cp_als",
    "masked_cp_als",
    "multi_start",
    "MultiStartResult",
    "start_seeds",
    "parallel_cp_als",
    "parallel_pp_cp_als",
]
