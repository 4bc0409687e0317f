"""repro — reproduction of "Efficient parallel CP decomposition with pairwise
perturbation and multi-sweep dimension tree" (Ma & Solomonik, IPDPS 2021).

The package provides:

* a dense tensor-algebra substrate (:mod:`repro.tensor`) whose contractions
  all route through a process-wide plan-caching engine (:mod:`repro.contract`),
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

Quick start
-----------

>>> import numpy as np
>>> from repro import ALSOptions, cp_als, random_cp_tensor
>>> tensor = random_cp_tensor((20, 21, 22), rank=5, seed=0).full()
>>> result = cp_als(tensor, ALSOptions(rank=5, n_sweeps=20, mttkrp="msdt", seed=1))
>>> result.fitness > 0.8
True
"""

from repro._version import __version__
from repro.backend import TensorBackend, is_sparse_tensor
from repro.contract import ContractionEngine, default_engine
from repro.core.cp_als import cp_als
from repro.sparse import CooTensor, CsfTensor, sparse_mttkrp, sparse_partial_mttkrp
from repro.core.pp_cp_als import pp_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.masked_cp_als import MaskedALSResult, masked_cp_als
from repro.core.algorithms import available_algorithms, get_algorithm
from repro.core.updates import UpdateRule, available_update_rules, make_update_rule
from repro.core.multi_start import MultiStartResult, multi_start, start_seeds
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.core.results import ALSResult, ParallelALSResult, ResultBase, SweepRecord
from repro.core.options import (
    ALSOptions,
    MaskedOptions,
    NNOptions,
    ParallelOptions,
    ParallelPPOptions,
    PPOptions,
)
from repro.service import (
    ArtifactCache,
    DecompositionRequest,
    DecompositionService,
    Job,
    JobState,
)
from repro.tensor.cp_format import CPTensor, random_cp_tensor
from repro.tensor.norms import fitness, relative_residual
from repro.machine.params import MachineParams
from repro.machine.cost_tracker import CostTracker
from repro.comm.simulated import SimulatedMachine
from repro.grid.processor_grid import ProcessorGrid
from repro.distributed.dist_tensor import DistributedTensor

__all__ = [
    "__version__",
    "cp_als",
    "pp_cp_als",
    "nn_cp_als",
    "masked_cp_als",
    "multi_start",
    "MultiStartResult",
    "MaskedALSResult",
    "start_seeds",
    "available_algorithms",
    "get_algorithm",
    "UpdateRule",
    "available_update_rules",
    "make_update_rule",
    "ContractionEngine",
    "default_engine",
    "parallel_cp_als",
    "parallel_pp_cp_als",
    "ALSResult",
    "ParallelALSResult",
    "ResultBase",
    "SweepRecord",
    "ALSOptions",
    "PPOptions",
    "NNOptions",
    "MaskedOptions",
    "ParallelOptions",
    "ParallelPPOptions",
    "ArtifactCache",
    "DecompositionRequest",
    "DecompositionService",
    "Job",
    "JobState",
    "CPTensor",
    "random_cp_tensor",
    "CooTensor",
    "CsfTensor",
    "sparse_mttkrp",
    "sparse_partial_mttkrp",
    "TensorBackend",
    "is_sparse_tensor",
    "fitness",
    "relative_residual",
    "MachineParams",
    "CostTracker",
    "SimulatedMachine",
    "ProcessorGrid",
    "DistributedTensor",
]
