"""Option bundles: the one way to configure a run of any driver.

Every driver takes its settings as one bundle, its second argument:
:func:`~repro.core.cp_als.cp_als` an :class:`ALSOptions`,
:func:`~repro.core.pp_cp_als.pp_cp_als` a :class:`PPOptions`,
:func:`~repro.core.nn_cp_als.nn_cp_als` an :class:`NNOptions`,
:func:`~repro.core.masked_cp_als.masked_cp_als` a :class:`MaskedOptions`,
:func:`~repro.core.parallel_cp_als.parallel_cp_als` a :class:`ParallelOptions`
and :func:`~repro.core.parallel_pp_cp_als.parallel_pp_cp_als` a
:class:`ParallelPPOptions`.  :func:`~repro.core.multi_start.multi_start` takes
any sequential bundle and runs the algorithm registered for its type.  The
driver's remaining keywords are data and runtime arguments (initial factors,
tracker, callback, mask, machine, ...), never a setting of the run.

Each setting has one canonical name, checked when the bundle is built: an
unknown MTTKRP engine, partitioner, update rule or execution substrate, a
non-finite or negative ``tol``, raise :class:`ValueError` at construction, not
mid-run.

The bundles are also what :mod:`repro.service` serializes into artifact-cache
keys — :meth:`ALSOptions.cache_key` is the canonical hashable form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.grid.balance import available_partitioners
from repro.grid.processor_grid import ProcessorGrid
from repro.trees.registry import available_providers
from repro.utils.validation import check_positive_int, check_rank

__all__ = [
    "ALSOptions",
    "PPOptions",
    "NNOptions",
    "MaskedOptions",
    "ParallelOptions",
    "ParallelPPOptions",
    "check_options",
]


def check_options(options, cls: type):
    """``options`` itself when it is a ``cls`` bundle, else :class:`TypeError`.

    Each driver calls this with its own bundle class; a subclass bundle is
    accepted and read through the fields ``cls`` declares.
    """
    if not isinstance(options, cls):
        raise TypeError(
            f"options must be a {cls.__name__} (or subclass) bundle, got "
            f"{type(options).__name__}"
        )
    return options


def _check_choice(value: str, what: str, choices: Sequence[str]) -> None:
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; available: {list(choices)}")


@dataclass
class ALSOptions:
    """Settings of a plain CP-ALS run (Algorithm 1, :func:`cp_als`).

    ``rank`` is the CP rank ``R``; ``n_sweeps`` bounds the sweeps; ``tol`` is
    the stop rule's ``Delta`` (the run stops when the relative residual moves
    by less than ``tol`` between two exact sweeps); ``mttkrp`` names the
    engine, one of :func:`~repro.trees.registry.available_providers` (the
    same names on dense and sparse input); ``seed`` seeds the uniform random
    initial factors.
    """

    rank: int
    n_sweeps: int = 50
    tol: float = 1.0e-5
    mttkrp: str = "dt"
    #: root seed (an int keeps the bundle hashable/serializable; the drivers
    #: also accept a ``np.random.Generator`` here at runtime)
    seed: object = None

    def __post_init__(self) -> None:
        self.rank = check_rank(self.rank)
        self.n_sweeps = check_positive_int(self.n_sweeps, "n_sweeps")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol!r}")
        _check_choice(self.mttkrp, "MTTKRP engine", available_providers())

    def asdict(self) -> dict:
        """Plain-dict form (sequences normalized to tuples) for reports."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (list, tuple)):
                value = tuple(value)
            out[f.name] = value
        return out

    def cache_key(self) -> tuple:
        """Canonical hashable form of the bundle (artifact-cache keying).

        Two bundles of the same class with equal fields produce equal keys
        regardless of how they were constructed.  Requires a hashable
        ``seed`` (ints/None — not a live ``Generator``).
        """
        return (type(self).__name__, tuple(sorted(self.asdict().items())))


def _check_pp(options) -> None:
    if not 0.0 < options.pp_tol < 1.0:
        raise ValueError("pp_tol must lie in (0, 1)")
    options.max_pp_sweeps_per_phase = check_positive_int(
        options.max_pp_sweeps_per_phase, "max_pp_sweeps_per_phase"
    )


@dataclass
class PPOptions(ALSOptions):
    """Settings of a pairwise-perturbation run (Algorithm 2, :func:`pp_cp_als`).

    ``pp_tol`` is the epsilon of Algorithm 2: PP sweeps are used while every
    factor's relative step ``||dA^(i)||_F / ||A^(i)||_F`` stays below it.  The
    paper uses 0.2 for the synthetic collinearity study and 0.1 for the
    application tensors.  ``n_sweeps`` defaults to 300 (the paper's bound for
    the collinearity study), and ``mttkrp`` to MSDT, as in the paper's
    implementation.  ``max_pp_sweeps_per_phase`` bounds the consecutive
    approximated sweeps of one PP phase.
    """

    n_sweeps: int = 300
    pp_tol: float = 0.1
    mttkrp: str = "msdt"
    max_pp_sweeps_per_phase: int = 200

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pp(self)


@dataclass
class NNOptions(ALSOptions):
    """Settings of a nonnegative CP run (:func:`~repro.core.nn_cp_als.nn_cp_als`).

    ``update`` selects the nonnegative update rule: ``"hals"`` (default,
    hierarchical ALS — exact cyclic column minimization) or
    ``"multiplicative"`` (Lee–Seung multiplicative updates, which
    additionally require an elementwise-nonnegative input tensor).
    """

    update: str = "hals"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_choice(self.update, "update rule", ("hals", "multiplicative"))


@dataclass
class MaskedOptions(ALSOptions):
    """Settings of a masked/weighted ALS run (:func:`~repro.core.masked_cp_als.masked_cp_als`).

    The observed-entry mask itself is *data*, not configuration — it travels
    with the tensor through the driver's ``mask=`` parameter (and the service
    request's ``mask`` field), never inside the bundle, so the bundle stays
    hashable for artifact-cache keys.
    """


@dataclass
class ParallelOptions(ALSOptions):
    """Settings of a parallel run (Algorithm 3, :func:`parallel_cp_als`).

    ``n_sweeps`` defaults to 25.  ``grid`` is the processor grid, a dimension
    tuple such as ``(2, 2, 4)`` or a
    :class:`~repro.grid.processor_grid.ProcessorGrid` (kept as its dims); its
    order must equal the tensor order.  ``distributed_solve=True`` models the
    paper's distributed SPD solves, ``False`` the PLANC-style redundant
    sequential solve.  ``partitioner`` (one of
    :func:`repro.grid.balance.available_partitioners`) splits sparse inputs
    over the grid.  ``update`` is the per-mode rule applied to each
    reduce-scattered chunk: ``"least_squares"`` (default, Algorithm 3
    exactly), ``"hals"`` or ``"multiplicative"``; every rule is row-separable,
    so the parallel iterates match the sequential ones.  The PP fields live
    on :class:`ParallelPPOptions` (Algorithm 4).
    """

    n_sweeps: int = 25
    grid: Sequence[int] = field(default_factory=lambda: (1,))
    distributed_solve: bool = True
    partitioner: str = "nnz-balanced"
    update: str = "least_squares"
    #: execution substrate: ``"simulated"`` (default — logical ranks in one
    #: process, bit-identical to real distributed execution) or ``"process"``
    #: (a :class:`~repro.comm.procs.ProcessMachine`: one spawned worker per
    #: rank with shared-memory factor panels).  Ignored when an explicit
    #: ``machine=`` is passed to the driver.
    execution: str = "simulated"
    #: who sums the per-rank MTTKRP panels: ``"master"`` (default — the
    #: master-driven collectives, bit-identical to simulated execution) or
    #: ``"worker"`` (workers reduce among themselves through shared memory in
    #: a binomial tree; requires a process machine, matches the single-rank
    #: oracle at 1e-10 and is deterministic run to run).
    collectives: str = "master"

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.grid, ProcessorGrid):
            self.grid = self.grid.dims
        self.grid = tuple(int(d) for d in self.grid)
        if any(d <= 0 for d in self.grid):
            raise ValueError(f"grid dimensions must be positive, got {self.grid}")
        _check_choice(self.partitioner, "partitioner", available_partitioners())
        _check_choice(self.update, "update rule",
                      ("least_squares", "hals", "multiplicative"))
        _check_choice(self.execution, "execution substrate", ("simulated", "process"))
        _check_choice(self.collectives, "collectives", ("master", "worker"))


@dataclass
class ParallelPPOptions(ParallelOptions):
    """Settings of a parallel PP run (Algorithm 4, :func:`parallel_pp_cp_als`).

    The PP fields mean what they mean on :class:`PPOptions`.
    """

    n_sweeps: int = 300
    mttkrp: str = "msdt"
    pp_tol: float = 0.1
    max_pp_sweeps_per_phase: int = 200

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pp(self)
