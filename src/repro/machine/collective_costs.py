"""Collective communication cost formulas (Section II-E of the paper).

For a group of ``P`` processors on a fully connected network and a payload of
``n`` words per processor:

* ``All-Gather``:      ``log2(P) * alpha + n * delta(P) * beta``
* ``Reduce-Scatter``:  ``log2(P) * alpha + n * delta(P) * beta``
* ``All-Reduce``:      ``2 log2(P) * alpha + 2 n * delta(P) * beta``
* ``Broadcast``:       ``log2(P) * alpha + n * delta(P) * beta``

where ``delta(P) = 1`` if ``P > 1`` and ``0`` otherwise.  The functions below
return ``(messages, words)`` pairs; the simulated communicator charges them to
the per-rank cost trackers, and :mod:`repro.costs` uses them for the analytic
per-sweep model.
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = [
    "all_gather_cost",
    "reduce_scatter_cost",
    "all_reduce_cost",
    "als_sweep_collective_cost",
    "process_hop_cost",
]


def _validate(n_words: float, n_procs: int) -> None:
    if n_words < 0:
        raise ValueError("word count must be non-negative")
    if n_procs < 1:
        raise ValueError("process count must be at least 1")


def _log2_ceil(p: int) -> float:
    return math.ceil(math.log2(p)) if p > 1 else 0.0


def all_gather_cost(n_words: float, n_procs: int) -> Tuple[float, float]:
    """(messages, words) cost of an All-Gather of total output size ``n_words``."""
    _validate(n_words, n_procs)
    delta = 1.0 if n_procs > 1 else 0.0
    return _log2_ceil(n_procs), n_words * delta


def reduce_scatter_cost(n_words: float, n_procs: int) -> Tuple[float, float]:
    """(messages, words) cost of a Reduce-Scatter over input size ``n_words``."""
    _validate(n_words, n_procs)
    delta = 1.0 if n_procs > 1 else 0.0
    return _log2_ceil(n_procs), n_words * delta


def all_reduce_cost(n_words: float, n_procs: int) -> Tuple[float, float]:
    """(messages, words) cost of an All-Reduce of size ``n_words``."""
    _validate(n_words, n_procs)
    delta = 1.0 if n_procs > 1 else 0.0
    return 2.0 * _log2_ceil(n_procs), 2.0 * n_words * delta


def als_sweep_collective_cost(
    shape: Tuple[int, ...],
    grid_dims: Tuple[int, ...],
    rank: int,
    block_rows: Tuple[int, ...] | None = None,
) -> Tuple[float, float]:
    """Aggregate (messages, words) of the collectives of one Algorithm-3 sweep.

    Per mode ``i``: one Reduce-Scatter and one All-Gather of the padded factor
    block (``block_rows_i * R`` words) within the ``P / I_i``-rank slice
    group, plus one ``R x R`` Gram All-Reduce over all ``P`` ranks.

    The payloads depend only on the factor geometry — the number of *rows* a
    block spans times ``R`` — never on the dense volume of the tensor block.
    This is the sparse-aware accounting: a sparse tensor distributed by a
    non-uniform partitioner communicates exactly its (padded) factor rows, so
    pass the partition's padded extents as ``block_rows``
    (:attr:`repro.grid.balance.TensorPartition.padded_extents`); the default
    reproduces the paper's uniform ``ceil(s_i / I_i)`` dense blocks.

    Example
    -------
    >>> messages, words = als_sweep_collective_cost((8, 8), (2, 2), rank=4)
    >>> messages, words
    (12.0, 128.0)
    """
    if len(shape) != len(grid_dims):
        raise ValueError("shape and grid_dims must have equal length")
    if rank <= 0:
        raise ValueError("rank must be positive")
    n_procs = 1
    for d in grid_dims:
        if d <= 0:
            raise ValueError("grid dimensions must be positive")
        n_procs *= int(d)
    if block_rows is None:
        from repro.grid.distribution import padded_block_size

        block_rows = tuple(padded_block_size(s, d) for s, d in zip(shape, grid_dims))
    if len(block_rows) != len(shape):
        raise ValueError("block_rows must give one padded height per mode")
    messages = 0.0
    words = 0.0
    for s, d, b in zip(shape, grid_dims, block_rows):
        group = n_procs // int(d)
        m, w = reduce_scatter_cost(int(b) * rank, group)
        messages += m
        words += w
        m, w = all_gather_cost(int(b) * rank, group)
        messages += m
        words += w
        m, w = all_reduce_cost(rank * rank, n_procs)
        messages += m
        words += w
    return messages, words


def process_hop_cost(
    shape: Tuple[int, ...],
    grid_dims: Tuple[int, ...],
    rank: int,
    block_rows: Tuple[int, ...] | None = None,
) -> Tuple[float, float]:
    """(hop messages, hop words) of one sweep under ``execution="process"``.

    The BSP formulas above model the *network* of the paper's machine; when
    the sweeps run on spawned worker processes (:mod:`repro.comm.procs`),
    every command/reply crossing a ``multiprocessing`` queue and every factor
    panel crossing shared memory is an extra *process hop* the pure model
    never sees.  Per mode ``m`` with padded block height ``b``, grid extent
    ``d = grid_dims[m]`` and ``P`` total ranks, ``3 P`` queue messages and
    ``(d + P) * b * R`` words:

    * ``3 P`` queue messages — an MTTKRP command and reply per rank plus the
      ``set_factor`` notification after the all-gather;
    * ``d * b * R`` published words — one factor-panel publish per distinct
      ``(mode, block)`` panel;
    * ``P * b * R`` words — the master copies every rank's output panel out
      of shared memory to reduce it.

    Charge the result at ``alpha_hop`` / ``beta_hop``
    (:class:`repro.machine.params.MachineParams`), typically fitted from
    measured runs by :mod:`repro.machine.calibrate`.
    """
    if len(shape) != len(grid_dims):
        raise ValueError("shape and grid_dims must have equal length")
    if rank <= 0:
        raise ValueError("rank must be positive")
    n_procs = 1
    for d in grid_dims:
        if d <= 0:
            raise ValueError("grid dimensions must be positive")
        n_procs *= int(d)
    if block_rows is None:
        from repro.grid.distribution import padded_block_size

        block_rows = tuple(padded_block_size(s, d) for s, d in zip(shape, grid_dims))
    if len(block_rows) != len(shape):
        raise ValueError("block_rows must give one padded height per mode")
    messages = 0.0
    words = 0.0
    for d, b in zip(grid_dims, block_rows):
        messages += 3.0 * n_procs
        words += float(int(d) + n_procs) * int(b) * rank
    return messages, words
