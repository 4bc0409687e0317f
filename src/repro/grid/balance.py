"""Partitioners cutting tensor modes into contiguous blocks over a processor grid.

Every distributed tensor, dense or sparse, has one layout rule: each mode is
cut into contiguous blocks at its partition's ``boundaries``, and every block
is padded to the widest one so collective payloads stay uniform (Section
II-A and Algorithm 3 of the paper).  The partitioners differ only in where
they put the cuts:

* :func:`uniform_partition` — the paper's layout: ``ceil(s / I)`` padded
  blocks.  :class:`~repro.distributed.dist_tensor.DistributedTensor` always
  uses it; a sparse tensor cut this way lands on the same ranks its
  densified twin would.
* :func:`nnz_balanced_partition` — greedily balanced nonzero counts,
  computed from the per-mode histograms of
  :meth:`repro.sparse.CooTensor.mode_nnz` / ``stats()``.
* :func:`joint_partition` — recursive bisection of the cached per-mode
  histograms followed by joint min-max refinement: each mode's boundaries are
  re-cut against the *conditional* per-rank loads induced by the other modes'
  current cuts, attacking the cross-mode correlation that any purely marginal
  partitioner (including nnz-balanced) cannot see.  Never worse than
  nnz-balanced (it falls back when refinement does not help).

A :class:`ModePartition` describes one mode's boundaries; a
:class:`TensorPartition` bundles one per mode over a
:class:`~repro.grid.processor_grid.ProcessorGrid` and assigns every nonzero
to the unique rank whose blocks contain it.  :meth:`TensorPartition.report`
summarizes the resulting per-rank nonzero counts as a
:class:`PartitionReport` (imbalance factor, padded extents, empty ranks).

Example
-------
>>> import numpy as np
>>> from repro.grid import ProcessorGrid
>>> from repro.grid.balance import make_partition
>>> from repro.sparse import CooTensor
>>> indices = np.array([[0, 0], [0, 1], [0, 2], [1, 0], [3, 1]])
>>> coo = CooTensor(indices, np.ones(5), (4, 3))
>>> part = make_partition("nnz-balanced", coo, ProcessorGrid((2, 1)))
>>> part.rank_of(coo.indices).tolist()   # slice 0 is heavy: it sits alone
[0, 0, 0, 1, 1]
>>> float(part.report(coo).imbalance)
1.2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.grid.distribution import padded_block_size, split_rows_evenly
from repro.grid.processor_grid import ProcessorGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sparse.coo import CooTensor

__all__ = [
    "ModePartition",
    "TensorPartition",
    "PartitionReport",
    "uniform_partition",
    "nnz_balanced_partition",
    "nnz_balanced_boundaries",
    "bisection_boundaries",
    "joint_partition",
    "make_partition",
    "available_partitioners",
    "PARTITIONERS",
]


class ModePartition:
    """Layout of one tensor mode over the grid dimension that owns it.

    Contiguous ``boundaries`` split the index range ``[0, s)`` of a mode of
    extent ``s`` into ``n_blocks`` half-open intervals (empty intervals are
    allowed); block ``x`` owns the slices ``boundaries[x] <= i <
    boundaries[x + 1]``.  Block heights are padded to the widest interval
    (:attr:`block_rows`) so collective payloads stay uniform, mirroring the
    paper's padded dense blocks.

    Example
    -------
    >>> part = ModePartition(5, [0, 2, 5])
    >>> part.n_blocks, part.block_rows, part.widths().tolist()
    (2, 3, [2, 3])
    >>> part.block_of([0, 1, 2, 4]).tolist()
    [0, 0, 1, 1]
    >>> part.local_offset([0, 1, 2, 4]).tolist()
    [0, 1, 0, 2]
    """

    def __init__(self, extent: int, boundaries: Sequence[int], name: str = "custom"):
        self.extent = int(extent)
        if self.extent <= 0:
            raise ValueError("mode extent must be positive")
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.shape[0] < 2:
            raise ValueError("boundaries must be a 1-d sequence of length >= 2")
        if bounds[0] != 0 or bounds[-1] != self.extent:
            raise ValueError(
                f"boundaries must start at 0 and end at the extent {self.extent}, "
                f"got [{bounds[0]}, ..., {bounds[-1]}]"
            )
        if (np.diff(bounds) < 0).any():
            raise ValueError("boundaries must be non-decreasing")
        self.boundaries = bounds
        self.name = name

    # -- basic properties ------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        """Number of blocks (the grid dimension assigned to this mode)."""
        return int(self.boundaries.shape[0] - 1)

    @property
    def block_rows(self) -> int:
        """Padded block height: the widest interval (always ``>= 1``)."""
        return int(max(np.diff(self.boundaries).max(), 1))

    def widths(self) -> np.ndarray:
        """True (unpadded) width of every block."""
        return np.diff(self.boundaries)

    def block_range(self, block_index: int) -> tuple[int, int]:
        """Half-open global index range ``[start, stop)`` covered by one block."""
        if not 0 <= block_index < self.n_blocks:
            raise ValueError(
                f"block index {block_index} out of range for {self.n_blocks} blocks"
            )
        return int(self.boundaries[block_index]), int(self.boundaries[block_index + 1])

    # -- index mapping ---------------------------------------------------------
    def block_of(self, indices: np.ndarray) -> np.ndarray:
        """Owning block of each global slice index."""
        indices = np.asarray(indices, dtype=np.int64)
        return np.searchsorted(self.boundaries, indices, side="right") - 1

    def local_offset(self, indices: np.ndarray) -> np.ndarray:
        """Row offset inside the owning block of each global slice index."""
        indices = np.asarray(indices, dtype=np.int64)
        return indices - self.boundaries[self.block_of(indices)]

    def global_rows_of_block(self, block_index: int) -> np.ndarray:
        """Global slice indices owned by ``block_index``, in order."""
        start, stop = self.block_range(block_index)
        return np.arange(start, stop, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModePartition({self.name!r}, extent={self.extent}, "
            f"blocks={self.n_blocks}, block_rows={self.block_rows})"
        )


# -- 1-d partitioners -----------------------------------------------------------

def uniform_partition(extent: int, n_blocks: int) -> ModePartition:
    """Uniform padded blocks — the dense-compatible baseline layout.

    Block ``x`` covers ``[min(x b, s), min((x+1) b, s))`` with ``b = ceil(s /
    I)`` (Section II-A of the paper): the layout of every dense
    :class:`~repro.distributed.dist_tensor.DistributedTensor`, so a sparse
    tensor partitioned this way lands on the same ranks its densified twin
    would.

    Example
    -------
    >>> uniform_partition(5, 2).boundaries.tolist()
    [0, 3, 5]
    """
    extent = int(extent)
    n_blocks = int(n_blocks)
    b = padded_block_size(extent, n_blocks)
    bounds = np.minimum(np.arange(n_blocks + 1, dtype=np.int64) * b, extent)
    return ModePartition(extent, bounds, name="uniform")


def nnz_balanced_boundaries(counts: np.ndarray, n_blocks: int) -> np.ndarray:
    """Greedy contiguous boundaries balancing per-block nonzero sums.

    Walks the slice histogram once; block ``k`` keeps absorbing slices while
    its sum is below the running target ``remaining_nnz / remaining_blocks``,
    and a slice that overshoots is included only when that leaves the block
    closer to the target than stopping short would.

    Example
    -------
    >>> nnz_balanced_boundaries(np.array([8, 1, 1, 1, 1]), 2).tolist()
    [0, 1, 5]
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.shape[0] == 0:
        raise ValueError("counts must be a non-empty 1-d histogram")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    n_blocks = int(n_blocks)
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    extent = counts.shape[0]
    bounds = np.zeros(n_blocks + 1, dtype=np.int64)
    remaining = int(counts.sum())
    cut = 0
    for block in range(n_blocks - 1):
        target = remaining / (n_blocks - block)
        acc = 0
        while cut < extent:
            nxt = int(counts[cut])
            if acc > 0 and acc + nxt > target and (acc + nxt - target) > (target - acc):
                break
            acc += nxt
            cut += 1
            if acc >= target:
                break
        bounds[block + 1] = cut
        remaining -= acc
    bounds[n_blocks] = extent
    return bounds


def nnz_balanced_partition(counts: np.ndarray, n_blocks: int) -> ModePartition:
    """Contiguous partition with greedily balanced per-block nonzero counts.

    Contiguity preserves slice locality (neighbouring slices stay on the same
    rank) at the price of a residual imbalance bounded by the heaviest single
    slice.

    Example
    -------
    >>> part = nnz_balanced_partition(np.array([8, 1, 1, 1, 1]), 2)
    >>> part.widths().tolist()
    [1, 4]
    """
    counts = np.asarray(counts, dtype=np.int64)
    bounds = nnz_balanced_boundaries(counts, n_blocks)
    return ModePartition(counts.shape[0], bounds, name="nnz-balanced")


def bisection_boundaries(counts: np.ndarray, n_blocks: int) -> np.ndarray:
    """Recursive-bisection contiguous boundaries over a slice histogram.

    Splits the index range at the prefix-sum point closest to a
    ``left_blocks / n_blocks`` share of the range's nonzeros, then recurses
    into both halves.  Unlike the greedy left-to-right walk of
    :func:`nnz_balanced_boundaries`, a bisection cut sees the mass on *both*
    sides, so it cannot strand the trailing blocks with all the leftover
    nonzeros — which makes it the better initial guess for
    :func:`joint_partition`'s refinement rounds.

    Example
    -------
    >>> bisection_boundaries(np.array([8, 1, 1, 1, 1]), 2).tolist()
    [0, 1, 5]
    >>> bisection_boundaries(np.array([1, 1, 1, 1]), 4).tolist()
    [0, 1, 2, 3, 4]
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.shape[0] == 0:
        raise ValueError("counts must be a non-empty 1-d histogram")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    n_blocks = int(n_blocks)
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    extent = counts.shape[0]
    prefix = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    cuts: list[int] = []

    def _bisect(lo: int, hi: int, blocks: int) -> None:
        if blocks <= 1:
            return
        left = blocks // 2
        target = prefix[lo] + (prefix[hi] - prefix[lo]) * (left / blocks)
        idx = int(np.searchsorted(prefix[lo:hi + 1], target)) + lo
        best = min(
            (c for c in (idx - 1, idx) if lo <= c <= hi),
            key=lambda c: abs(float(prefix[c]) - target),
        )
        cuts.append(best)
        _bisect(lo, best, left)
        _bisect(best, hi, blocks - left)

    _bisect(0, extent, n_blocks)
    return np.array(sorted([0, extent] + cuts), dtype=np.int64)


def _min_max_boundaries(counts2d: np.ndarray, n_blocks: int) -> np.ndarray:
    """Optimal contiguous split of ``counts2d`` rows minimizing the largest
    per-(block, column) sum.

    ``counts2d[i, r]`` is the load slice ``i`` contributes to rest-rank ``r``;
    a block's cost is the max over columns of its summed rows, i.e. the
    heaviest grid rank the block induces.  Binary-searches the optimal
    capacity and realizes it with greedy maximal extension (both sides of the
    classic monotone-feasibility argument), so the result is exactly optimal,
    not heuristic.  Empty blocks are allowed.
    """
    counts2d = np.asarray(counts2d, dtype=np.int64)
    extent = counts2d.shape[0]
    prefix = np.zeros((extent + 1, counts2d.shape[1]), dtype=np.int64)
    np.cumsum(counts2d, axis=0, out=prefix[1:])

    def _greedy(cap: int) -> np.ndarray | None:
        bounds = np.zeros(n_blocks + 1, dtype=np.int64)
        start = 0
        for block in range(n_blocks):
            lo, hi = start, extent
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if int((prefix[mid] - prefix[start]).max()) <= cap:
                    lo = mid
                else:
                    hi = mid - 1
            bounds[block + 1] = lo
            start = lo
        return bounds if start == extent else None

    lo = int(counts2d.max()) if counts2d.size else 0
    hi = int(prefix[extent].max()) if counts2d.size else 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _greedy(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    bounds = _greedy(lo)
    if bounds is None:  # pragma: no cover - capacity search guarantees this
        raise RuntimeError("min-max boundary search failed to converge")
    return bounds


def _near_equal_boundaries(extent: int, n_blocks: int) -> np.ndarray:
    ranges = split_rows_evenly(int(extent), int(n_blocks))
    return np.array([0] + [stop for _, stop in ranges], dtype=np.int64)


# -- reports ---------------------------------------------------------------------

@dataclass(eq=False)  # ndarray field: the generated __eq__ would raise
class PartitionReport:
    """Load-balance summary of a :class:`TensorPartition` applied to a tensor.

    Example
    -------
    >>> import numpy as np
    >>> from repro.grid import ProcessorGrid
    >>> from repro.grid.balance import make_partition
    >>> from repro.sparse import CooTensor
    >>> coo = CooTensor(np.array([[0, 0], [1, 1], [2, 0]]), np.ones(3), (4, 2))
    >>> report = make_partition("uniform", coo, ProcessorGrid((2, 1))).report(coo)
    >>> report.per_rank_nnz.tolist(), float(report.imbalance)
    ([2, 1], 1.3333333333333333)
    """

    partitioner: str
    grid_dims: tuple[int, ...]
    total_nnz: int
    per_rank_nnz: np.ndarray
    padded_extents: tuple[int, ...]
    mode_boundaries: list[np.ndarray] = field(default_factory=list)

    @property
    def imbalance(self) -> float:
        """Max-over-mean per-rank nonzero count (1.0 is perfectly balanced)."""
        mean = self.per_rank_nnz.mean() if self.per_rank_nnz.size else 0.0
        if mean == 0.0:
            return 1.0
        return float(self.per_rank_nnz.max() / mean)

    @property
    def empty_ranks(self) -> int:
        """Number of ranks that own no nonzeros at all."""
        return int((self.per_rank_nnz == 0).sum())

    def asdict(self) -> dict:
        """Plain-dict summary (used by reports and benchmarks)."""
        return {
            "partitioner": self.partitioner,
            "grid": "x".join(str(d) for d in self.grid_dims),
            "total_nnz": self.total_nnz,
            "max_rank_nnz": int(self.per_rank_nnz.max()) if self.per_rank_nnz.size else 0,
            "mean_rank_nnz": float(self.per_rank_nnz.mean()) if self.per_rank_nnz.size else 0.0,
            "imbalance": self.imbalance,
            "empty_ranks": self.empty_ranks,
            "padded_extents": self.padded_extents,
        }

    def summary(self) -> str:
        """Human-readable multi-line summary (used by the examples)."""
        d = self.asdict()
        lines = [
            f"partitioner={d['partitioner']} grid={d['grid']} nnz={d['total_nnz']}",
            (
                f"  per-rank nnz: max={d['max_rank_nnz']} "
                f"mean={d['mean_rank_nnz']:.1f} imbalance={d['imbalance']:.2f}x "
                f"empty_ranks={d['empty_ranks']}"
            ),
            f"  padded local extents: {self.padded_extents}",
        ]
        return "\n".join(lines)


# -- the N-d bundle --------------------------------------------------------------

class TensorPartition:
    """One :class:`ModePartition` per tensor mode over a processor grid.

    The rank owning a nonzero at coordinate ``(i_1, ..., i_N)`` is the grid
    rank at coordinate ``(block_1(i_1), ..., block_N(i_N))`` — every nonzero
    lands on exactly one rank because each 1-d partition covers its mode.

    Example
    -------
    >>> import numpy as np
    >>> from repro.grid import ProcessorGrid
    >>> from repro.grid.balance import make_partition
    >>> from repro.sparse import CooTensor
    >>> coo = CooTensor(np.array([[0, 0], [3, 1]]), np.ones(2), (4, 2))
    >>> part = make_partition("uniform", coo, ProcessorGrid((2, 2)))
    >>> part.rank_of(coo.indices).tolist()
    [0, 3]
    """

    def __init__(self, grid: ProcessorGrid, modes: Sequence[ModePartition],
                 name: str = "custom"):
        modes = list(modes)
        if len(modes) != grid.order:
            raise ValueError(
                f"need one mode partition per grid dimension: got {len(modes)} "
                f"for an order-{grid.order} grid"
            )
        for m, (part, dim) in enumerate(zip(modes, grid.dims)):
            if part.n_blocks != dim:
                raise ValueError(
                    f"mode {m} partition has {part.n_blocks} blocks but the grid "
                    f"dimension is {dim}"
                )
        self.grid = grid
        self.modes = modes
        self.name = name

    @property
    def global_shape(self) -> tuple[int, ...]:
        return tuple(p.extent for p in self.modes)

    @property
    def padded_extents(self) -> tuple[int, ...]:
        """Uniform local block shape: the padded height of every mode."""
        return tuple(p.block_rows for p in self.modes)

    def block_slices(self, rank: int) -> tuple[slice, ...]:
        """Global index slices of the block owned by grid ``rank``.

        Example
        -------
        >>> from repro.grid import ProcessorGrid
        >>> part = TensorPartition(ProcessorGrid((2, 2)),
        ...                        [uniform_partition(4, 2), uniform_partition(6, 2)])
        >>> part.block_slices(2)
        (slice(2, 4, None), slice(0, 3, None))
        """
        coord = self.grid.coordinate(rank)
        return tuple(slice(*part.block_range(c)) for part, c in zip(self.modes, coord))

    def rank_of(self, indices: np.ndarray) -> np.ndarray:
        """Owning grid rank of each coordinate row of ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != self.grid.order:
            raise ValueError(
                f"indices must have shape (nnz, {self.grid.order}), got {indices.shape}"
            )
        blocks = tuple(
            part.block_of(indices[:, m]) for m, part in enumerate(self.modes)
        )
        if indices.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return np.ravel_multi_index(blocks, self.grid.dims).astype(np.int64)

    def local_indices(self, indices: np.ndarray) -> np.ndarray:
        """Block-local coordinate rows (offsets inside each owning block)."""
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty_like(indices)
        for m, part in enumerate(self.modes):
            out[:, m] = part.local_offset(indices[:, m])
        return out

    def assign(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ranks, local_indices)`` in one pass over the coordinates.

        Equivalent to :meth:`rank_of` plus :meth:`local_indices` but computes
        each mode's block ids once instead of twice — the hot path of
        :meth:`repro.distributed.sparse.DistSparseTensor.from_coo`.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != self.grid.order:
            raise ValueError(
                f"indices must have shape (nnz, {self.grid.order}), got {indices.shape}"
            )
        local = np.empty_like(indices)
        blocks = []
        for m, part in enumerate(self.modes):
            column = indices[:, m]
            block = np.searchsorted(part.boundaries, column, side="right") - 1
            local[:, m] = column - part.boundaries[block]
            blocks.append(block)
        if indices.shape[0] == 0:
            return np.zeros(0, dtype=np.int64), local
        ranks = np.ravel_multi_index(tuple(blocks), self.grid.dims).astype(np.int64)
        return ranks, local

    def report(self, tensor: "CooTensor") -> PartitionReport:
        """Per-rank nonzero counts and imbalance of this partition on ``tensor``."""
        ranks = self.rank_of(tensor.indices)
        per_rank = np.bincount(ranks, minlength=self.grid.size)
        return PartitionReport(
            partitioner=self.name,
            grid_dims=self.grid.dims,
            total_nnz=tensor.nnz,
            per_rank_nnz=per_rank,
            padded_extents=self.padded_extents,
            mode_boundaries=[p.boundaries.copy() for p in self.modes],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TensorPartition({self.name!r}, grid={self.grid.dims}, "
            f"padded_extents={self.padded_extents})"
        )


# -- the joint (cross-mode) partitioner ------------------------------------------

def joint_partition(tensor: "CooTensor", grid: ProcessorGrid,
                    rounds: int = 3) -> TensorPartition:
    """Joint cross-mode partition: recursive bisection plus min-max refinement.

    Every purely marginal partitioner (including ``nnz-balanced``) cuts each
    mode against its *1-d* nonzero histogram, which is blind to cross-mode
    correlation: two modes can each look balanced while their heavy slices
    coincide on the same grid rank.  This builder starts from
    :func:`bisection_boundaries` on the cached
    :meth:`~repro.sparse.CooTensor.mode_nnz` histograms, then coordinate-
    descends: for each mode in turn it histograms the nonzeros against the
    *current* block assignment of the other modes
    (``counts2d[i, r]`` = nonzeros of slice ``i`` landing on rest-rank ``r``)
    and re-cuts the mode with :func:`_min_max_boundaries`, which minimizes the
    heaviest induced grid rank exactly.  Each step can only lower (never
    raise) the max per-rank load, and as a final guarantee the result is
    compared against the marginal ``nnz-balanced`` partition and the better of
    the two is returned — so ``joint`` is never worse than ``nnz-balanced``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.grid import ProcessorGrid
    >>> from repro.sparse import CooTensor
    >>> idx = np.array([[0, 0], [0, 1], [1, 0], [2, 2], [3, 3], [3, 2]])
    >>> coo = CooTensor(idx, np.ones(6), (4, 4))
    >>> part = joint_partition(coo, ProcessorGrid((2, 2)))
    >>> part.name
    'joint'
    >>> marginal = make_partition("nnz-balanced", coo, ProcessorGrid((2, 2)))
    >>> bool(part.report(coo).imbalance <= marginal.report(coo).imbalance)
    True
    """
    if tensor.ndim != grid.order:
        raise ValueError(
            f"tensor order {tensor.ndim} does not match grid order {grid.order}"
        )
    dims = grid.dims
    shape = tensor.shape
    order = tensor.ndim
    if tensor.nnz == 0:
        modes = [ModePartition(s, _near_equal_boundaries(s, d), name="joint")
                 for s, d in zip(shape, dims)]
        return TensorPartition(grid, modes, name="joint")
    indices = np.asarray(tensor.indices, dtype=np.int64)
    bounds = [bisection_boundaries(tensor.mode_nnz(m), dims[m])
              for m in range(order)]
    block_ids = [np.searchsorted(bounds[m], indices[:, m], side="right") - 1
                 for m in range(order)]
    for _ in range(int(rounds)):
        changed = False
        for m in range(order):
            if dims[m] == 1:
                continue
            rest_dims = [dims[o] for o in range(order) if o != m]
            n_rest = int(np.prod(rest_dims, dtype=np.int64)) if rest_dims else 1
            if n_rest == 1:
                rest = np.zeros(indices.shape[0], dtype=np.int64)
            else:
                rest = np.ravel_multi_index(
                    tuple(block_ids[o] for o in range(order) if o != m),
                    rest_dims,
                ).astype(np.int64)
            counts2d = np.bincount(
                indices[:, m] * n_rest + rest,
                minlength=shape[m] * n_rest,
            ).reshape(shape[m], n_rest)
            new_bounds = _min_max_boundaries(counts2d, dims[m])
            if not np.array_equal(new_bounds, bounds[m]):
                bounds[m] = new_bounds
                block_ids[m] = np.searchsorted(
                    bounds[m], indices[:, m], side="right"
                ) - 1
                changed = True
        if not changed:
            break
    joint = TensorPartition(
        grid,
        [ModePartition(shape[m], bounds[m], name="joint") for m in range(order)],
        name="joint",
    )
    marginal = _build_nnz_balanced(tensor, grid)
    if marginal.report(tensor).imbalance < joint.report(tensor).imbalance:
        fallback = [ModePartition(p.extent, p.boundaries, name="joint")
                    for p in marginal.modes]
        return TensorPartition(grid, fallback, name="joint")
    return joint


# -- registry --------------------------------------------------------------------

def _build_uniform(tensor, grid):
    return TensorPartition(
        grid,
        [uniform_partition(s, d) for s, d in zip(tensor.shape, grid.dims)],
        name="uniform",
    )


def _build_nnz_balanced(tensor, grid):
    return TensorPartition(
        grid,
        [
            nnz_balanced_partition(tensor.mode_nnz(m), grid.dims[m])
            for m in range(tensor.ndim)
        ],
        name="nnz-balanced",
    )


#: partitioner name -> builder ``(tensor, ProcessorGrid) -> TensorPartition``
PARTITIONERS = {
    "uniform": _build_uniform,
    "nnz-balanced": _build_nnz_balanced,
    "joint": joint_partition,
}


def available_partitioners() -> list[str]:
    """The partitioner names :func:`make_partition` accepts."""
    return list(PARTITIONERS)


def make_partition(kind: str, tensor: "CooTensor", grid: ProcessorGrid) -> TensorPartition:
    """Build the named :class:`TensorPartition` for ``tensor`` over ``grid``.

    ``kind`` is one of :func:`available_partitioners`, spelled exactly.
    ``"uniform"`` reads only ``tensor.shape``, so it also cuts a dense
    ndarray (:meth:`repro.distributed.dist_tensor.DistributedTensor.from_dense`).
    """
    if kind not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {kind!r}; available: {available_partitioners()}"
        )
    if tensor.ndim != grid.order:
        raise ValueError(
            f"tensor order {tensor.ndim} does not match grid order {grid.order}"
        )
    return PARTITIONERS[kind](tensor, grid)
