"""The one entry point: the options bundle's class picks the driver.

:mod:`repro.service` and :func:`~repro.core.multi_start.multi_start` dispatch
through :func:`decompose` and read the algorithm's name from the same table;
adding a family is one bundle class and one table line.
"""

from __future__ import annotations

from repro.core.cp_als import cp_als
from repro.core.masked_cp_als import masked_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.options import (ALSOptions, MaskedOptions, NNOptions, ParallelOptions,
                                ParallelPPOptions, PPOptions)
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.core.pp_cp_als import pp_cp_als
from repro.core.results import ResultBase

__all__ = ["decompose", "algorithm_name"]

#: bundle class -> (algorithm name, driver)
_DRIVERS = {
    ALSOptions: ("als", cp_als),
    PPOptions: ("pp", pp_cp_als),
    NNOptions: ("nncp", nn_cp_als),
    MaskedOptions: ("masked", masked_cp_als),
    ParallelOptions: ("parallel_als", parallel_cp_als),
    ParallelPPOptions: ("parallel_pp", parallel_pp_cp_als),
}


def _entry(options) -> tuple[str, object]:
    # the first table class in the MRO is the most-derived one: an NNOptions
    # subclass runs nn_cp_als, never cp_als
    for cls in type(options).__mro__:
        if cls in _DRIVERS:
            return _DRIVERS[cls]
    raise TypeError(
        f"options must be an options bundle ({', '.join(c.__name__ for c in _DRIVERS)} "
        f"or a subclass), got {type(options).__name__}"
    )


def algorithm_name(options) -> str:
    """Name of the algorithm ``options`` runs (``"als"``, ``"pp"``, ``"nncp"``, ...)."""
    return _entry(options)[0]


def decompose(tensor, options, **data) -> ResultBase:
    """Run the driver ``options`` selects on ``tensor``; ``data`` holds its
    data and runtime keywords (``callback``, ``mask``, ``machine``, ...).

    >>> from repro import NNOptions, decompose, random_cp_tensor
    >>> tensor = random_cp_tensor((6, 5, 4), rank=2, seed=0).full()
    >>> result = decompose(tensor, NNOptions(rank=2, n_sweeps=5, seed=1))
    >>> result.options["update"]
    'hals'
    """
    return _entry(options)[1](tensor, options, **data)
