"""Block sizes of the padded distribution of tensor modes and factor rows.

The paper distributes the dense tensor uniformly over the processor grid with
local blocks of size ``ceil(s_i / I_i)`` per mode, padding with zeros when the
mode size is not divisible (Section II-A).  Zero padding keeps every local
block the same shape (so collective payloads are uniform) and does not change
any MTTKRP/Gram results because the padded rows are identically zero.  The
blocks themselves are cut by :func:`repro.grid.balance.uniform_partition`;
this module holds the block height it and the cost models share, and the
even row split of a slice group's rows across its members.
"""

from __future__ import annotations

__all__ = [
    "padded_block_size",
    "split_rows_evenly",
]


def padded_block_size(extent: int, n_blocks: int) -> int:
    """Uniform (padded) block size ``ceil(extent / n_blocks)``.

    Example
    -------
    >>> padded_block_size(10, 4)
    3
    """
    if extent <= 0:
        raise ValueError("extent must be positive")
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    return -(-extent // n_blocks)


def split_rows_evenly(n_rows: int, n_parts: int) -> list[tuple[int, int]]:
    """Split ``n_rows`` into ``n_parts`` contiguous near-equal ranges.

    Used to scatter the rows a slice group owns across its members after a
    Reduce-Scatter (the ``Q`` distribution of Algorithm 3).

    Example
    -------
    >>> split_rows_evenly(7, 3)
    [(0, 3), (3, 5), (5, 7)]
    """
    if n_rows < 0:
        raise ValueError("n_rows must be non-negative")
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    base = n_rows // n_parts
    extra = n_rows % n_parts
    ranges = []
    start = 0
    for i in range(n_parts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
