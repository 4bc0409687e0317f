"""Machine model: BSP alpha-beta-gamma-nu parameters and cost accounting.

The paper's Section II-E analyses all algorithms in a BSP-style model with
four parameters:

* ``alpha`` — per-message latency,
* ``beta`` — per-word horizontal (inter-processor) bandwidth cost,
* ``gamma`` — per-flop compute cost,
* ``nu`` — per-word vertical (memory <-> cache) bandwidth cost.

:class:`repro.machine.params.MachineParams` holds those parameters,
:class:`repro.machine.cost_tracker.CostTracker` accumulates per-category
flops, message counts and word counts during a run (both for actually executed
kernels and for modeled collectives), and
:mod:`repro.machine.collective_costs` contains the collective cost formulas of
Section II-E used by the simulated communicator.
"""
