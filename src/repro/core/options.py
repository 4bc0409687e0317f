"""Option bundles for the ALS drivers — the single ``options=`` path.

Every driver accepts its bundle through one ``options=`` parameter:
:func:`~repro.core.cp_als.cp_als` takes an :class:`ALSOptions`,
:func:`~repro.core.pp_cp_als.pp_cp_als` a :class:`PPOptions`,
:func:`~repro.core.parallel_cp_als.parallel_cp_als` a :class:`ParallelOptions`,
:func:`~repro.core.parallel_pp_cp_als.parallel_pp_cp_als` a
:class:`ParallelPPOptions`, and :func:`~repro.core.multi_start.multi_start`
forwards an :class:`ALSOptions`/:class:`PPOptions` to the solver it batches.
The legacy plain keyword arguments remain supported and are routed through
these dataclasses internally (:func:`resolve_options`), so both spellings
produce bit-identical runs; passing ``options=`` *and* legacy keywords emits a
:class:`DeprecationWarning` and the explicit keywords override the bundle.

Field defaults mirror the matching driver's defaults exactly (e.g.
``PPOptions.n_sweeps == 300`` like ``pp_cp_als``, ``ParallelOptions.n_sweeps
== 25`` like ``parallel_cp_als``), so ``cls(rank=r)`` and a bare driver call
configure the same run.

The bundles are also what :mod:`repro.service` serializes into artifact-cache
keys — :meth:`ALSOptions.cache_key` is the canonical hashable form — and
:meth:`ALSOptions.from_kwargs` / :meth:`ALSOptions.to_kwargs` round-trip a
bundle through the driver keyword-argument spelling.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from repro.utils.validation import check_positive_int, check_rank

__all__ = [
    "ALSOptions",
    "PPOptions",
    "NNOptions",
    "MaskedOptions",
    "ParallelOptions",
    "ParallelPPOptions",
    "resolve_options",
]


@dataclass
class ALSOptions:
    """Settings of a plain CP-ALS run (Algorithm 1, :func:`cp_als`)."""

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
        if self.tol < 0:
            raise ValueError("tol must be non-negative")

    # -- round-trip helpers --------------------------------------------------
    @classmethod
    def from_kwargs(cls, **kwargs) -> "ALSOptions":
        """Build a bundle from driver keyword arguments.

        ``None`` values mean "not given" and fall back to the field defaults;
        unknown keys raise ``TypeError``.  ``cls.from_kwargs(**opts.to_kwargs())``
        reproduces ``opts`` exactly.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise TypeError(
                f"{cls.__name__}.from_kwargs got unknown options {unknown}; "
                f"known: {sorted(known)}"
            )
        clean = {k: v for k, v in kwargs.items() if v is not None}
        if "rank" not in clean:
            raise TypeError(
                f"rank is required (pass rank= or an {cls.__name__} bundle)"
            )
        return cls(**clean)

    def to_kwargs(self) -> dict:
        """The driver keyword arguments reproducing this bundle.

        Only keywords the matching driver actually accepts are emitted, so
        ``driver(tensor, **opts.to_kwargs())`` is always a valid call.
        """
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in self._exclude_from_kwargs()
        }

    @classmethod
    def _exclude_from_kwargs(cls) -> tuple:
        """Fields carried by the bundle but not accepted by its driver."""
        return ()

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


@dataclass
class PPOptions(ALSOptions):
    """Settings of a pairwise-perturbation run (Algorithm 2, :func:`pp_cp_als`).

    ``pp_tol`` is the epsilon of Algorithm 2: PP sweeps are used while every
    factor's relative step ``||dA^(i)||_F / ||A^(i)||_F`` stays below it.  The
    paper uses 0.2 for the synthetic collinearity study and 0.1 for the
    application tensors.  ``n_sweeps`` defaults to 300 like the driver (the
    paper's bound for the collinearity study), not 50.
    """

    n_sweeps: int = 300
    pp_tol: float = 0.1
    mttkrp: str = "msdt"
    max_pp_sweeps_per_phase: int = 200

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.pp_tol < 1.0:
            raise ValueError("pp_tol must lie in (0, 1)")
        self.max_pp_sweeps_per_phase = check_positive_int(
            self.max_pp_sweeps_per_phase, "max_pp_sweeps_per_phase"
        )


@dataclass
class NNOptions(ALSOptions):
    """Settings of a nonnegative CP run (:func:`~repro.core.nn_cp_als.nn_cp_als`).

    ``update`` selects the nonnegative update rule: ``"hals"`` (default,
    hierarchical ALS — exact cyclic column minimization) or
    ``"multiplicative"`` (alias ``"mu"``, Lee–Seung multiplicative updates,
    which additionally require an elementwise-nonnegative input tensor).
    """

    update: str = "hals"

    def __post_init__(self) -> None:
        super().__post_init__()
        self.update = str(self.update).lower().strip()
        if self.update == "mu":
            self.update = "multiplicative"
        if self.update not in ("hals", "multiplicative"):
            raise ValueError(
                f"update must be 'hals' or 'multiplicative', got {self.update!r}"
            )


@dataclass
class MaskedOptions(ALSOptions):
    """Settings of a masked/weighted ALS run (:func:`~repro.core.masked_cp_als.masked_cp_als`).

    The observed-entry mask itself is *data*, not configuration — it travels
    with the tensor through the drivers' ``mask=`` parameter (and the service
    request's ``mask`` field), never inside the bundle, so the bundle stays
    hashable for artifact-cache keys.
    """


@dataclass
class ParallelOptions(ALSOptions):
    """Settings of a parallel run (Algorithm 3, :func:`parallel_cp_als`).

    ``n_sweeps`` defaults to 25 like the driver.  The PP-specific fields live
    on :class:`ParallelPPOptions` (Algorithm 4), which this class no longer
    carries.  ``update`` selects the per-mode update rule applied to each
    reduce-scattered chunk (every registered rule is row-separable, so the
    parallel iterates match the sequential ones): ``"least_squares"``
    (default), ``"hals"`` or ``"multiplicative"``.
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
        self.grid = tuple(int(d) for d in self.grid)
        if any(d <= 0 for d in self.grid):
            raise ValueError(f"grid dimensions must be positive, got {self.grid}")
        self.execution = str(self.execution).lower().strip()
        if self.execution == "sim":
            self.execution = "simulated"
        elif self.execution in ("procs", "multiprocess"):
            self.execution = "process"
        if self.execution not in ("simulated", "process"):
            raise ValueError(
                "execution must be 'simulated' or 'process', "
                f"got {self.execution!r}"
            )
        self.collectives = str(self.collectives).lower().strip()
        if self.collectives not in ("master", "worker"):
            raise ValueError(
                "collectives must be 'master' or 'worker', "
                f"got {self.collectives!r}"
            )
        self.update = str(self.update).lower().strip()
        if self.update == "mu":
            self.update = "multiplicative"
        if self.update not in ("least_squares", "hals", "multiplicative"):
            raise ValueError(
                "update must be 'least_squares', 'hals' or 'multiplicative', "
                f"got {self.update!r}"
            )


@dataclass
class ParallelPPOptions(ParallelOptions):
    """Settings of a parallel PP run (Algorithm 4, :func:`parallel_pp_cp_als`)."""

    n_sweeps: int = 300
    mttkrp: str = "msdt"
    pp_tol: float = 0.1
    max_pp_sweeps_per_phase: int = 200

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.pp_tol < 1.0:
            raise ValueError("pp_tol must lie in (0, 1)")
        self.max_pp_sweeps_per_phase = check_positive_int(
            self.max_pp_sweeps_per_phase, "max_pp_sweeps_per_phase"
        )


def resolve_options(cls, options, legacy: dict):
    """Merge an ``options=`` bundle with explicitly-passed legacy keywords.

    The drivers call this with their canonical bundle class ``cls``, the
    ``options`` argument they received (or ``None``), and a mapping of their
    option-covered keyword parameters (``None`` meaning "not given").

    * neither given → ``TypeError`` from the missing ``rank``;
    * legacy keywords only → a fresh ``cls`` with driver defaults filled in;
    * ``options`` only → its fields, filtered to what ``cls`` knows (so an
      :class:`ALSOptions` upgrades into a :class:`PPOptions` with PP defaults,
      and a :class:`PPOptions` downgrades into :func:`cp_als` cleanly);
    * both → :class:`DeprecationWarning`, the explicit keywords override.
    """
    explicit = {k: v for k, v in legacy.items() if v is not None}
    if options is None:
        return cls.from_kwargs(**explicit)
    if not isinstance(options, ALSOptions):
        raise TypeError(
            f"options must be an ALSOptions bundle, got {type(options).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    merged = {k: v for k, v in options.asdict().items() if k in known}
    if explicit:
        warnings.warn(
            "passing both options= and legacy driver keywords is deprecated; "
            f"the explicit keywords override the bundle: {sorted(explicit)}",
            DeprecationWarning,
            stacklevel=3,
        )
        merged.update(explicit)
    return cls(**merged)
