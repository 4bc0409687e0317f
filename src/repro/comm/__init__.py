"""Communication substrate.

The parallel algorithms in :mod:`repro.core` run on a machine's
*group collectives*: every collective takes the per-rank contributions of one
BSP superstep and returns the per-rank results, charging the alpha-beta cost
of the collective to each participating rank's
:class:`repro.machine.cost_tracker.CostTracker`.

Two machines provide them:

* :class:`repro.comm.simulated.SimulatedMachine` — ``P`` logical ranks inside
  one process.  Data movement is performed exactly (results are bit-identical
  to a real distributed run) and costs are charged according to the formulas
  of Section II-E of the paper.  This is the substitution for the paper's
  MPI/Cyclops runs (``docs/execution.rst``); a single-rank machine is
  ``SimulatedMachine(1)``, whose collectives are the identity and cost
  nothing.
* :class:`repro.comm.procs.ProcessMachine` — real ``multiprocessing`` workers
  (one spawned process per rank) with shared-memory factor panels; collectives
  stay master-driven (bit-identical to the simulated machine) while the
  rank-local kernels execute in the workers.

:data:`MACHINES` maps a run's ``execution`` setting to its machine class, and
each machine's ``attach`` builds the ranks of one distributed problem on it
(:mod:`repro.distributed.runtime`): the one substrate decision.

No machine runs over real MPI: full-sweep SPMD deployment is parked, and git
history holds the mpi4py adapter that once served it (``7033aeb``).
"""

from repro.comm.simulated import SimulatedMachine
from repro.comm.procs import ProcessMachine, leaked_segments

#: the machine class of each ``execution`` substrate
MACHINES = {"simulated": SimulatedMachine, "process": ProcessMachine}

__all__ = [
    "MACHINES",
    "SimulatedMachine",
    "ProcessMachine",
    "leaked_segments",
]
