"""The names, units and directions of every metric the harness reports.

``BENCHMARK.json`` lists the same names (``test_smoke.py`` checks that the
two agree); later issues refer to metrics and workloads by these names.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "KERNEL_BACKEND_CODES"]

#: name -> (unit, better).  All are reported by all four workloads.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "als_solve_s": ("s", "lower"),
    "pp_solve_s": ("s", "lower"),
    "dt_sweep_s": ("s", "lower"),
    "msdt_sweep_s": ("s", "lower"),
    "pp_approx_sweep_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  ``null`` on a workload where the layer is idle.
PER_LAYER = {
    # contract
    "contract.plan_search_s": ("s", "lower"),
    "contract.plan_hit_ratio": ("ratio", "higher"),
    # tensor
    "tensor.first_contraction_s": ("s", "lower"),
    "tensor.residual_s": ("s", "lower"),
    "tensor.norm_s": ("s", "lower"),
    # sparse
    "sparse.coo_build_s": ("s", "lower"),
    "sparse.csf_build_s": ("s", "lower"),
    "sparse.csf_mb": ("MB", "lower"),
    "sparse.coo_mttkrp_s": ("s", "lower"),
    "sparse.csf_cache_hit_ratio": ("ratio", "higher"),
    "sparse.kernel_backend": ("code", "higher"),
    # trees
    "trees.provider_build_s": ("s", "lower"),
    "trees.dt_mttkrp_s": ("s", "lower"),
    "trees.msdt_mttkrp_s": ("s", "lower"),
    "trees.dt_flops": ("flop", "lower"),
    "trees.msdt_flops": ("flop", "lower"),
    "trees.pp_build_s": ("s", "lower"),
    "trees.pp_operator_mb": ("MB", "lower"),
    "trees.cache_hit_ratio": ("ratio", "higher"),
    # core
    "core.prepare_s": ("s", "lower"),
    "core.solve_s": ("s", "lower"),
    "core.gram_s": ("s", "lower"),
    "core.pp_correction_s": ("s", "lower"),
    "core.driver_self_s": ("s", "lower"),
    "core.als_sweeps_to_tol": ("count", "lower"),
    "core.pp_exact_sweeps": ("count", "lower"),
    "core.pp_init_count": ("count", "lower"),
    "core.pp_approx_sweeps": ("count", "lower"),
    "core.fitness_als": ("fitness", "higher"),
    "core.fitness_pp": ("fitness", "higher"),
    # grid, distributed
    "grid.partition_s": ("s", "lower"),
    "grid.imbalance_pct": ("%", "lower"),
    "distributed.scatter_s": ("s", "lower"),
    "distributed.max_rank_nnz": ("count", "lower"),
    # machine, comm
    "machine.modeled_sweep_s": ("s", "lower"),
    "machine.measured_over_modeled": ("ratio", "lower"),
    "comm.words_per_sweep": ("words", "lower"),
    "comm.messages_per_sweep": ("count", "lower"),
    "comm.sim_overhead_s": ("s", "lower"),
    "comm.process_startup_s": ("s", "lower"),
    "comm.process_hop_s": ("s", "lower"),
    # service
    "service.queue_wait_s": ("s", "lower"),
    "service.compute_s": ("s", "lower"),
    "service.overhead_s": ("s", "lower"),
    "service.request_build_s": ("s", "lower"),
    "service.artifact_hit_s": ("s", "lower"),
    "service.jobs_failed": ("count", "lower"),
    # harness
    "ref.blas_s": ("s", "lower"),
    "ref.mem_s": ("s", "lower"),
    "ref.py_s": ("s", "lower"),
    **{f"raw.{name}": spec for name, spec in END_TO_END.items()},
    "trace.overhead_pct": ("%", "lower"),
    "rounds": ("count", "higher"),
}

#: code reported as ``sparse.kernel_backend``
KERNEL_BACKEND_CODES = {"numpy": 0, "numba": 1, "numba-parallel": 2}
