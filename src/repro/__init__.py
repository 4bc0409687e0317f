"""repro — reproduction of "Efficient parallel CP decomposition with pairwise
perturbation and multi-sweep dimension tree" (Ma & Solomonik, IPDPS 2021).

The package provides:

* a dense tensor-algebra substrate (:mod:`repro.tensor`) whose tree kernels
  are BLAS calls on views; the remaining einsums (the dense reference
  MTTKRPs, the COO ``naive`` MTTKRP, the sparse fiber step's row scaling)
  run on one process-wide plan cache (:mod:`repro.contract`),
* an in-process simulated BSP machine with MPI-style collectives and an
  alpha-beta-gamma-nu cost model (:mod:`repro.machine`, :mod:`repro.comm`,
  :mod:`repro.grid`, :mod:`repro.distributed`),
* the MTTKRP engines the paper studies — naive, standard dimension tree,
  multi-sweep dimension tree (MSDT) and the pairwise-perturbation operator
  builder (:mod:`repro.trees`),
* sequential and parallel CP-ALS / PP-CP-ALS drivers (:mod:`repro.core`),
* analytic cost models reproducing Table I (:mod:`repro.costs`),
* synthetic workload generators mirroring the paper's datasets
  (:mod:`repro.data`), and
* experiment drivers that regenerate every table and figure of the paper's
  evaluation section (:mod:`repro.experiments`).

The names in ``__all__`` — the entry point, the drivers, their option
bundles and results, the service, and the tensor formats — are imported on
first use (PEP 562), so ``import repro`` and a spawned process-machine worker
load only the modules they run.  Everything else is imported from the module
that defines it.

Quick start
-----------

>>> import numpy as np
>>> from repro import ALSOptions, cp_als, random_cp_tensor
>>> tensor = random_cp_tensor((20, 21, 22), rank=5, seed=0).full()
>>> result = cp_als(tensor, ALSOptions(rank=5, n_sweeps=20, mttkrp="msdt", seed=1))
>>> result.fitness > 0.8
True
"""

import importlib

from repro._version import __version__

#: the public names and their defining modules
_PUBLIC = {
    "decompose": "repro.core.decompose",
    "cp_als": "repro.core.cp_als",
    "pp_cp_als": "repro.core.pp_cp_als",
    "nn_cp_als": "repro.core.nn_cp_als",
    "masked_cp_als": "repro.core.masked_cp_als",
    "parallel_cp_als": "repro.core.parallel_cp_als",
    "parallel_pp_cp_als": "repro.core.parallel_pp_cp_als",
    "multi_start": "repro.core.multi_start",
    "ALSOptions": "repro.core.options",
    "PPOptions": "repro.core.options",
    "NNOptions": "repro.core.options",
    "MaskedOptions": "repro.core.options",
    "ParallelOptions": "repro.core.options",
    "ParallelPPOptions": "repro.core.options",
    "ALSResult": "repro.core.results",
    "ParallelALSResult": "repro.core.results",
    "MaskedALSResult": "repro.core.masked_cp_als",
    "MultiStartResult": "repro.core.multi_start",
    "SweepRecord": "repro.core.results",
    "ArtifactCache": "repro.service",
    "DecompositionRequest": "repro.service",
    "DecompositionService": "repro.service",
    "Job": "repro.service",
    "JobState": "repro.service",
    "CPTensor": "repro.tensor.cp_format",
    "random_cp_tensor": "repro.tensor.cp_format",
    "CooTensor": "repro.sparse",
}

# Outside ``__all__``: the benchmark harness (``benchmarks/harness``) imports
# these six from ``repro`` and is kept byte-identical across changes to the
# package, so they keep resolving here.
_HARNESS = {
    "CostTracker": "repro.machine.cost_tracker",
    "CsfTensor": "repro.sparse",
    "ProcessorGrid": "repro.grid.processor_grid",
    "default_engine": "repro.contract",
    "make_update_rule": "repro.core.updates",
    "sparse_mttkrp": "repro.sparse",
}

_LAZY = {**_PUBLIC, **_HARNESS}

__all__ = ["__version__", *_PUBLIC]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
