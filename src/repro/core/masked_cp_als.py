"""Masked / weighted CP-ALS for missing-data tensors.

Recommender-style workloads observe only a subset of the tensor's entries;
the objective is the weighted residual ``||W o (T - [[A]])||_F`` over the
observed pattern ``W``.  The observed entries *are* a sparse tensor, so the
whole COO/CSF/dimension-tree machinery applies directly: the driver binds the
standard MTTKRP providers to the observed data (the observed
:class:`~repro.sparse.CooTensor` on the sparse backend, the zero-filled dense
array on the dense backend) and runs the shared sweep kernel under the
``masked_least_squares`` rule of :mod:`repro.core.updates`, which performs an
EM-style exact ALS sweep on the tensor whose unobserved entries hold the
sweep-start model values.  Both backends read only observed entries, so they
produce identical iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.backend import is_sparse_tensor
from repro.core.loop import solve_sequential
from repro.core.options import MaskedOptions, check_options
from repro.core.results import ALSResult
from repro.core.updates import MaskedLeastSquaresUpdate
from repro.machine.cost_tracker import CostTracker
from repro.sparse.coo import CooTensor

__all__ = ["masked_cp_als", "MaskedALSResult", "normalize_mask"]


@dataclass
class MaskedALSResult(ALSResult):
    """Outcome of a masked run; residual/fitness are the *weighted* ones.

    ``residual`` is ``||W o (T - [[A]])||_F / ||W o T||_F`` — the relative
    residual over the observed entries only — and ``fitness = 1 - residual``
    through the shared :meth:`~repro.core.results.ResultBase.fitness_from_residual`.
    """

    n_observed: int = 0
    observed_fraction: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaskedALSResult(fitness={self.fitness:.4f}, sweeps={self.n_sweeps}, "
            f"observed={self.n_observed})"
        )


def normalize_mask(tensor, mask) -> np.ndarray:
    """Canonical ``(n_observed, ndim)`` int64 coordinate matrix of the mask.

    Accepted mask spellings:

    * ``None`` — only for a sparse input tensor, whose nonzero pattern then
      *is* the mask (the common "observed interactions" case);
    * a :class:`~repro.sparse.CooTensor` — its index pattern is the mask
      (values are ignored);
    * a dense boolean/numeric array of the tensor's shape — nonzero entries
      are observed.

    The returned coordinates are sorted in the canonical COO order and
    deduplicated.
    """
    shape = tuple(tensor.shape)
    if mask is None:
        if not is_sparse_tensor(tensor):
            raise ValueError(
                "a mask is required for dense input: pass an explicit mask (for "
                "a sparse CooTensor the nonzero pattern is used when it is omitted)"
            )
        return tensor.indices
    if is_sparse_tensor(mask):
        if tuple(mask.shape) != shape:
            raise ValueError(
                f"mask shape {tuple(mask.shape)} does not match tensor shape {shape}"
            )
        return mask.indices
    mask_arr = np.asarray(mask)
    if mask_arr.shape != shape:
        raise ValueError(
            f"mask shape {mask_arr.shape} does not match tensor shape {shape}"
        )
    # argwhere returns coordinates in C order == the canonical COO order
    return np.ascontiguousarray(np.argwhere(mask_arr != 0), dtype=np.int64)


def _observed_values(tensor, mask_indices: np.ndarray) -> np.ndarray:
    """Tensor values at the mask coordinates (zero where the tensor is absent)."""
    if is_sparse_tensor(tensor):
        # match coordinates through the shared C-order linearization: the
        # canonical COO order is exactly ascending linearized order
        modes = range(tensor.ndim)
        lin_tensor = tensor.linearize(modes)
        dims = tensor.shape
        lin_mask = np.ravel_multi_index(
            tuple(mask_indices[:, m] for m in range(len(dims))), dims
        ).astype(np.int64, copy=False)
        pos = np.searchsorted(lin_tensor, lin_mask)
        pos_clipped = np.minimum(pos, max(len(lin_tensor) - 1, 0))
        values = np.zeros(len(lin_mask), dtype=np.float64)
        if len(lin_tensor):
            hit = lin_tensor[pos_clipped] == lin_mask
            values[hit] = tensor.values[pos_clipped[hit]]
        return values
    arr = np.asarray(tensor)
    values = arr[tuple(mask_indices.T)].astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise ValueError("observed tensor entries contain non-finite values")
    return np.ascontiguousarray(values, dtype=np.float64)


def masked_cp_als(
    tensor: np.ndarray,
    options: MaskedOptions,
    *,
    mask=None,
    initial_factors: Sequence[np.ndarray] | None = None,
    tracker: CostTracker | None = None,
    record_sweeps: bool = True,
    callback: Callable[[int, list[np.ndarray], float], None] | None = None,
    max_cache_bytes: int | None = None,
    dtype: np.dtype | str | None = None,
) -> MaskedALSResult:
    """CP decomposition over observed entries only (masked/weighted ALS).

    Parameters
    ----------
    tensor:
        A dense ndarray or a sparse :class:`~repro.sparse.CooTensor`.  Only
        entries selected by ``mask`` are ever read — unobserved dense entries
        may hold anything (including NaN placeholders).
    options:
        A :class:`~repro.core.options.MaskedOptions` bundle.  The mask itself
        never lives in the bundle (it is data, like the tensor).
    mask:
        The observed-entry pattern; see :func:`normalize_mask` for the
        accepted spellings.  Required for dense input; defaults to the
        nonzero pattern for sparse input.
    initial_factors, tracker, record_sweeps, callback, max_cache_bytes, dtype:
        As in :func:`~repro.core.cp_als.cp_als`.

    >>> import numpy as np
    >>> from repro.core.masked_cp_als import masked_cp_als
    >>> from repro.core.options import MaskedOptions
    >>> rng = np.random.default_rng(0)
    >>> t = rng.random((6, 5, 4))
    >>> observed = rng.random(t.shape) < 0.5
    >>> result = masked_cp_als(t, MaskedOptions(rank=2, n_sweeps=10, seed=1),
    ...                        mask=observed)
    >>> result.n_observed == int(observed.sum())
    True

    Returns
    -------
    :class:`MaskedALSResult` — ``residual``/``fitness`` are weighted over the
    observed entries, and ``n_observed``/``observed_fraction`` report the
    mask size.
    """
    check_options(options, MaskedOptions)
    sparse_input = is_sparse_tensor(tensor)
    mask_indices = normalize_mask(tensor, mask)
    if mask_indices.shape[0] == 0:
        raise ValueError("the mask selects no observed entries")
    observed = _observed_values(tensor, mask_indices)
    shape = tuple(int(s) for s in tensor.shape)

    if sparse_input:
        # the CooTensor constructor keeps explicit zeros, which is exactly
        # right here: an observed zero is data, not a missing entry
        observed_tensor = CooTensor(mask_indices, observed, shape)
    else:
        observed_tensor = np.zeros(shape, dtype=np.float64)
        observed_tensor[tuple(mask_indices.T)] = observed

    n_observed = int(mask_indices.shape[0])
    size = int(np.prod(shape, dtype=np.int64))
    return solve_sequential(
        observed_tensor, options, MaskedOptions,
        rule=MaskedLeastSquaresUpdate(mask_indices, shape),
        result=partial(MaskedALSResult, n_observed=n_observed,
                       observed_fraction=n_observed / size),
        initial_factors=initial_factors, tracker=tracker, record_sweeps=record_sweeps,
        callback=callback, max_cache_bytes=max_cache_bytes, dtype=dtype,
    )
