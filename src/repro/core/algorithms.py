"""Registry of the sequential decomposition algorithms.

One :class:`AlgorithmSpec` per driver maps an algorithm name to the callable
and to its canonical :class:`~repro.core.options.ALSOptions` bundle class.
Both the service layer (:class:`repro.service.DecompositionRequest` resolves
default bundles and validates ``options`` against the registered class) and
:func:`~repro.core.multi_start.multi_start` (inner-solver dispatch and
bundle-type inference) consult this registry instead of private if-chains, so
adding a family here is all it takes to expose it everywhere.

Only *sequential* drivers register — they are what ``multi_start`` batches
and the service executes per job.  The parallel drivers take machine/grid
arguments that neither consumer supplies, and ``"multi_start"`` itself stays
a service-level meta-algorithm on top of this registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.options import ALSOptions, MaskedOptions, NNOptions, PPOptions

__all__ = [
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "options_class_for",
    "algorithm_for_options",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered sequential decomposition algorithm."""

    #: registry name (``"als"``, ``"pp"``, ``"nncp"``, ``"masked"``)
    name: str
    #: the driver: ``driver(tensor, options, **data) -> ResultBase``
    driver: Callable
    #: canonical options-bundle class accepted by the driver
    options_cls: type
    #: whether the driver accepts the ``mask=`` data argument
    accepts_mask: bool = False


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec`` under ``spec.name`` (replacing any previous entry)."""
    if not isinstance(spec, AlgorithmSpec):
        raise TypeError(f"expected an AlgorithmSpec, got {type(spec).__name__}")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """The spec registered under ``name`` (KeyError-free, raises ValueError)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        ) from None


def available_algorithms() -> list[str]:
    """Registered algorithm names, in registration order."""
    return list(_REGISTRY)


def options_class_for(name: str) -> type:
    """The canonical options-bundle class of algorithm ``name``."""
    return get_algorithm(name).options_cls


def algorithm_for_options(options) -> AlgorithmSpec:
    """The registered algorithm whose bundle class matches ``options``.

    Exact class matches win; otherwise the most-derived registered class that
    ``options`` is an instance of (so an :class:`NNOptions` — a subclass of
    :class:`ALSOptions` — selects ``"nncp"``, not ``"als"``).
    """
    for spec in _REGISTRY.values():
        if type(options) is spec.options_cls:
            return spec
    best: AlgorithmSpec | None = None
    for spec in _REGISTRY.values():
        if isinstance(options, spec.options_cls):
            if best is None or issubclass(spec.options_cls, best.options_cls):
                best = spec
    if best is None:
        raise TypeError(
            f"no registered algorithm accepts options of type "
            f"{type(options).__name__}; available: {available_algorithms()}"
        )
    return best


def _register_builtin() -> None:
    # imported lazily so this module stays importable from the drivers
    # themselves without a cycle
    from repro.core.cp_als import cp_als
    from repro.core.masked_cp_als import masked_cp_als
    from repro.core.nn_cp_als import nn_cp_als
    from repro.core.pp_cp_als import pp_cp_als

    register_algorithm(AlgorithmSpec("als", cp_als, ALSOptions))
    register_algorithm(AlgorithmSpec("pp", pp_cp_als, PPOptions))
    register_algorithm(AlgorithmSpec("nncp", nn_cp_als, NNOptions))
    register_algorithm(
        AlgorithmSpec("masked", masked_cp_als, MaskedOptions, accepts_mask=True)
    )


_register_builtin()
