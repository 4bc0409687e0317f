"""Nonnegative CP decomposition on the shared engine stack.

Same sweep structure as :func:`~repro.core.cp_als.cp_als` — and the exact same
MTTKRP engines, dense or sparse — with the per-mode least-squares solve
replaced by a nonnegative update rule from :mod:`repro.core.updates`:
hierarchical ALS (``"hals"``, the default) or Lee–Seung multiplicative
updates (``"multiplicative"``).  Both rules are monotone non-increasing in
the Frobenius objective, so the recorded residual trajectory never goes up.

The dominant cost of nonnegative CP is the identical MTTKRP, which is why the
paper's dimension-tree amortization transfers unchanged: ``mttkrp="dt"`` /
``"msdt"`` work exactly as they do for plain ALS.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.core.loop import solve_sequential
from repro.core.options import NNOptions, check_options
from repro.core.results import ALSResult
from repro.core.updates import make_update_rule
from repro.machine.cost_tracker import CostTracker

__all__ = ["nn_cp_als"]


def _check_nonnegative_tensor(tensor) -> None:
    values = tensor.values if is_sparse_tensor(tensor) else np.asarray(tensor)
    if np.asarray(values).size and float(np.min(values)) < 0.0:
        raise ValueError(
            "multiplicative updates require an elementwise-nonnegative tensor; "
            "use update='hals' for tensors with negative entries"
        )


def nn_cp_als(
    tensor: np.ndarray,
    options: NNOptions,
    *,
    initial_factors: Sequence[np.ndarray] | None = None,
    tracker: CostTracker | None = None,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
    dtype: np.dtype | str | None = None,
) -> ALSResult:
    """Nonnegative CP decomposition (HALS by default).

    ``options`` is an :class:`~repro.core.options.NNOptions`, whose
    ``update`` selects ``"hals"`` (default) or ``"multiplicative"``; the other
    arguments are those of :func:`~repro.core.cp_als.cp_als`.  The returned
    factors are elementwise nonnegative.  The default uniform-random
    initialization is already nonnegative; explicit ``initial_factors`` must
    be too.  Multiplicative updates additionally require the tensor itself to
    be elementwise nonnegative (HALS does not).

    >>> import numpy as np
    >>> from repro.core.nn_cp_als import nn_cp_als
    >>> from repro.core.options import NNOptions
    >>> rng = np.random.default_rng(0)
    >>> t = rng.random((6, 5, 4))
    >>> result = nn_cp_als(t, NNOptions(rank=3, n_sweeps=10, seed=1))
    >>> all((f >= 0).all() for f in result.factors)
    True

    Returns
    -------
    :class:`~repro.core.results.ALSResult`
    """
    opts = check_options(options, NNOptions)
    if opts.update == "multiplicative":
        _check_nonnegative_tensor(tensor)
    if initial_factors is not None:
        for mode, factor in enumerate(initial_factors):
            factor = np.asarray(factor)
            if factor.size and float(np.min(factor)) < 0.0:
                raise ValueError(
                    f"initial factor for mode {mode} has negative entries; "
                    "nonnegative CP requires nonnegative initial factors"
                )
    return solve_sequential(
        tensor, opts, NNOptions, rule=make_update_rule(opts.update),
        initial_factors=initial_factors, tracker=tracker, callback=callback,
        dtype=dtype,
    )
