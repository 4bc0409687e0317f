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
  driver over any sequential bundle, with deterministic per-start seeds and
  optional worker threads sharing one contraction-plan cache.
* :func:`repro.core.decompose.decompose` — the one entry point: the options
  bundle's class picks the driver.

Every driver runs the one sweep loop of :mod:`repro.core.loop` (stop rule,
PP phases, sweep records) over a sequential or a parallel substrate, from one
of two bodies: :func:`~repro.core.loop.solve_sequential` or
:func:`~repro.core.parallel_common.solve_parallel`.  The per-mode factor
updates live in :mod:`repro.core.updates` (the
:class:`~repro.core.updates.UpdateRule` objects plus the shared
:func:`~repro.core.updates.sweep` kernel every sequential driver runs).
"""
