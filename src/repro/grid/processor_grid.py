"""N-dimensional logical processor grids.

A :class:`ProcessorGrid` with dimensions ``I_1 x ... x I_N`` numbers its
``P = prod I_i`` processors in C (row-major) order over the coordinates.  For
each tensor mode ``i`` the grid exposes:

* :meth:`ProcessorGrid.slice_groups` — the partition of ranks into the
  ``I_i`` "processor slices" ``P^(i)(x_i, :)`` of the paper (all processors
  sharing the ``i``-th coordinate ``x_i``); the Reduce-Scatter and All-Gather
  of a mode-``i`` factor update run within these groups,
* :meth:`ProcessorGrid.coordinate` / :meth:`ProcessorGrid.rank` — coordinate
  arithmetic.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["ProcessorGrid"]


class ProcessorGrid:
    """A logical multidimensional processor grid.

    Example
    -------
    >>> grid = ProcessorGrid((2, 3))
    >>> grid.size, grid.order
    (6, 2)
    >>> grid.coordinate(4)
    (1, 1)
    >>> grid.rank((1, 1))
    4
    >>> grid.slice_groups(0)          # ranks sharing the mode-0 coordinate
    [[0, 1, 2], [3, 4, 5]]
    """

    def __init__(self, dims: Sequence[int]):
        dims = tuple(check_positive_int(int(d), "grid dimension") for d in dims)
        if len(dims) == 0:
            raise ValueError("processor grid needs at least one dimension")
        self._dims = dims
        self._size = int(np.prod(dims))

    # -- basic properties --------------------------------------------------
    @property
    def dims(self) -> tuple[int, ...]:
        """Grid extents ``(I_1, ..., I_N)``."""
        return self._dims

    @property
    def order(self) -> int:
        """Number of grid dimensions (equals the tensor order)."""
        return len(self._dims)

    @property
    def size(self) -> int:
        """Total number of processors ``P``."""
        return self._size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProcessorGrid) and other._dims == self._dims

    def __hash__(self) -> int:
        return hash(self._dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ProcessorGrid(" + "x".join(str(d) for d in self._dims) + ")"

    # -- coordinate arithmetic ----------------------------------------------
    def coordinate(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of processor ``rank`` (C order)."""
        if not 0 <= rank < self._size:
            raise ValueError(f"rank {rank} out of range for grid of size {self._size}")
        return tuple(int(c) for c in np.unravel_index(rank, self._dims))

    def rank(self, coordinate: Sequence[int]) -> int:
        """Rank of the processor at ``coordinate``."""
        coordinate = tuple(int(c) for c in coordinate)
        if len(coordinate) != self.order:
            raise ValueError(
                f"coordinate {coordinate} has wrong length for order-{self.order} grid"
            )
        for c, d in zip(coordinate, self._dims):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {coordinate} outside grid {self._dims}")
        return int(np.ravel_multi_index(coordinate, self._dims))

    def ranks(self) -> Iterator[int]:
        """Iterate over all ranks."""
        return iter(range(self._size))

    def coordinates(self) -> Iterator[tuple[int, ...]]:
        """Iterate over all coordinates in rank order."""
        for rank in range(self._size):
            yield self.coordinate(rank)

    # -- groups --------------------------------------------------------------
    def slice_groups(self, mode: int) -> list[list[int]]:
        """Partition of ranks into the ``I_mode`` slices ``P^(mode)(x, :)``.

        Group ``x`` contains every rank whose ``mode``-th coordinate equals
        ``x``; these are the processors that jointly own the rows of factor
        ``A^(mode)`` with block index ``x`` and that participate in the
        mode-``mode`` Reduce-Scatter / All-Gather.
        """
        if not 0 <= mode < self.order:
            raise ValueError(f"mode {mode} out of range for order-{self.order} grid")
        groups: list[list[int]] = [[] for _ in range(self._dims[mode])]
        for rank in range(self._size):
            coord = self.coordinate(rank)
            groups[coord[mode]].append(rank)
        return groups

    # -- helpers --------------------------------------------------------------
    @classmethod
    def for_tensor(cls, shape: Sequence[int], n_procs: int) -> "ProcessorGrid":
        """Heuristically build a near-balanced grid of ``n_procs`` for ``shape``.

        Factorizes ``n_procs`` into prime factors and assigns each factor to
        the mode with the largest current per-processor block, mirroring the
        grid choices used in the paper's weak-scaling study.

        Example
        -------
        >>> ProcessorGrid.for_tensor((64, 16, 16), 8).dims
        (8, 1, 1)
        """
        n_procs = check_positive_int(n_procs, "n_procs")
        shape = [int(s) for s in shape]
        dims = [1] * len(shape)
        remaining = n_procs
        primes: list[int] = []
        f = 2
        while f * f <= remaining:
            while remaining % f == 0:
                primes.append(f)
                remaining //= f
            f += 1
        if remaining > 1:
            primes.append(remaining)
        for p in sorted(primes, reverse=True):
            # assign to the mode with the largest local extent
            local = [shape[i] / dims[i] for i in range(len(shape))]
            target = int(np.argmax(local))
            dims[target] *= p
        return cls(dims)
