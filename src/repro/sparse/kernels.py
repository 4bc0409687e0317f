"""Pluggable kernel backends for the sparse hot loops (``numpy`` | ``numba``).

Every sparse contraction in the package funnels through a handful of
primitive loops: the fiber-run segmented sum
(:class:`repro.sparse.csf.SegmentSum`), the gather·multiply·reduce step of
the semi-sparse tree contractions (:mod:`repro.trees.sparse_dt`), the
blockwise COO gather/scatter MTTKRP (:mod:`repro.sparse.mttkrp`), and the
fiber-run first-order PP correction (:mod:`repro.trees.sparse_pp`).  This
module gives each of them a *kernel backend*:

* :class:`NumpyKernel` — the stateless NumPy/SciPy reference implementation:
  every reduction and scatter is one :class:`~repro.sparse.csf.SegmentSum`
  product (SciPy's compiled CSR-times-dense routine), built per call.  It is
  the parity oracle for every compiled kernel and the automatic fallback when
  Numba is not installed.  The providers do not call it on their hot path —
  they keep their operators with the sparsity pattern — so the bar a compiled
  backend has to clear is the cached-operator path of
  :mod:`repro.trees.sparse_dt`, not this class.
* :class:`NumbaKernel` — ``@njit``-compiled fused loops (available only when
  :mod:`numba` imports; install the ``compiled`` extra).  The fused variants
  skip the intermediate arrays a product of two dense blocks materializes —
  no gathered factor-row block, no scaled temporary — and the segment loops
  (one independent output run per iteration) optionally run thread-parallel
  via ``numba.prange`` (kernel name ``"numba-parallel"``).

Selection is by name through :func:`get_kernel` — the same names the engine
registry exposes as the ``*_compiled`` engines and the drivers accept as the
``kernel=`` option:

``None``
    the default path at every call site (no kernel object; cached
    :class:`~repro.sparse.csf.SegmentSum` operators, elementwise products
    through the shared contraction-plan cache);
``"numpy"``
    the explicit NumPy/SciPy kernel backend;
``"numba"`` / ``"numba-parallel"``
    the compiled backend (serial / thread-parallel segment loops).  When
    Numba is missing the call **falls back** to :class:`NumpyKernel` with a
    one-time :class:`RuntimeWarning` — results are identical, only slower;
    pass ``strict=True`` (or call :func:`require_numba`) to get an
    :class:`ImportError` instead;
``"auto"``
    ``"numba"`` when available, ``"numpy"`` otherwise, without the warning.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.sparse.csf import SegmentSum

__all__ = [
    "KernelBackend",
    "NumpyKernel",
    "available_kernels",
    "get_kernel",
    "normalize_kernel_name",
    "numba_available",
    "require_numba",
]

_KERNEL_NAMES = ("numpy", "numba", "numba-parallel", "auto")


def numba_available() -> bool:
    """True when :mod:`numba` imports (the ``compiled`` install extra)."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def require_numba() -> None:
    """Raise a helpful :class:`ImportError` unless :mod:`numba` imports."""
    if not numba_available():
        raise ImportError(
            "the compiled kernel backend requires numba; install it with "
            "`pip install repro-pp-msdt[compiled]` (or pick kernel='numpy')"
        )


def available_kernels() -> list[str]:
    """Kernel names :func:`get_kernel` accepts (compiled ones may fall back)."""
    return list(_KERNEL_NAMES)


def normalize_kernel_name(name: str | None) -> str | None:
    """Canonical kernel name, or ``None`` for the default engine path."""
    if name is None:
        return None
    key = str(name).lower().strip().replace("_", "-")
    if key in ("", "none", "default"):
        return None
    if key not in _KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {name!r}; available: {list(_KERNEL_NAMES)} or None"
        )
    return key


class KernelBackend:
    """Interface of a sparse kernel backend.

    All methods share the fiber-run conventions of
    :mod:`repro.sparse.csf`: ``starts`` are strictly increasing run offsets
    beginning at 0 into the row axis of the reduced operand (the final run
    extends to the end), and outputs indexed by runs are dense ``(n_runs, R)``
    blocks.  Results are freshly allocated and always writable (unlike the
    aliasing fast path of :func:`repro.sparse.csf.segment_reduce`).
    """

    #: registry name
    name = "abstract"
    #: True when the backend runs compiled (Numba) loops
    compiled = False
    #: True when segment loops run thread-parallel
    parallel = False

    def segment_reduce(self, block: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """``out[f] = block[starts[f]:starts[f+1]].sum(0)``."""
        raise NotImplementedError

    def scale_reduce(
        self,
        data: np.ndarray,
        coords: np.ndarray,
        factor: np.ndarray,
        starts: np.ndarray,
        perm: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused gather · multiply · segmented reduction.

        ``out[f, r] = sum_{i in run f} w_i(r) * factor[coords[p(i)], r]``
        where ``w_i`` is ``data[p(i)]`` (scalar per row when ``data`` is 1-D,
        an ``R``-vector when 2-D) and ``p`` is ``perm`` (identity when
        ``None``).  This is the root/fiber contraction step of the
        semi-sparse dimension trees in one pass.
        """
        raise NotImplementedError

    def coo_mttkrp(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        factors: tuple[np.ndarray, ...],
        mode: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Fused COO MTTKRP: per-nonzero Khatri-Rao row scatter-added into ``out``.

        ``out`` must be pre-zeroed; the contribution of nonzero ``i`` is
        ``values[i] * hadamard_{j != mode} factors[j][indices[i, j], :]``
        added into row ``indices[i, mode]``.
        """
        raise NotImplementedError

    def pair_accumulate(
        self,
        out: np.ndarray,
        fibers: np.ndarray,
        block: np.ndarray,
        factor: np.ndarray,
        out_axis: int,
    ) -> np.ndarray:
        """Fused semi-sparse pair contraction, **accumulated** into ``out``.

        For every fiber ``f`` with coordinates ``(x, y) = fibers[f]``
        (``x`` along ``out_axis``): ``out[x, :] += block[f, :] *
        factor[y, :]`` — the Eq. (6) first-order correction without the
        scaled temporary or a regrouping permutation.
        """
        raise NotImplementedError


class NumpyKernel(KernelBackend):
    """Stateless NumPy/SciPy reference kernels (fallback and parity oracle)."""

    name = "numpy"

    def segment_reduce(self, block, starts):
        return SegmentSum(starts, block.shape[0], dtype=block.dtype) @ block

    def scale_reduce(self, data, coords, factor, starts, perm=None):
        n_rows = data.shape[0]
        if data.ndim == 1:  # scalar weights: the whole step is one product
            if perm is not None:
                data, coords = data[perm], coords[perm]
            return SegmentSum(starts, n_rows, columns=coords,
                              n_columns=factor.shape[0], weights=data,
                              dtype=factor.dtype) @ factor
        scaled = data * factor[coords]
        return SegmentSum(starts, n_rows, columns=perm, n_columns=n_rows,
                          dtype=scaled.dtype) @ scaled

    def coo_mttkrp(self, indices, values, factors, mode, out, block_size=1 << 16):
        n_modes = len(factors)
        for lo in range(0, indices.shape[0], block_size):
            idx = indices[lo:lo + block_size]
            block = np.repeat(values[lo:lo + block_size, None], out.shape[1], axis=1)
            for j in range(n_modes):
                if j != mode:
                    block *= factors[j][idx[:, j]]
            out += SegmentSum.scatter(idx[:, mode], out.shape[0],
                                      dtype=block.dtype) @ block
        return out

    def pair_accumulate(self, out, fibers, block, factor, out_axis):
        if fibers.shape[0] == 0:
            return out
        scaled = block * factor[fibers[:, 1 - out_axis]]
        out += SegmentSum.scatter(fibers[:, out_axis], out.shape[0],
                                  dtype=scaled.dtype) @ scaled
        return out


class NumbaKernel(KernelBackend):
    """Numba ``@njit`` fused kernels; ``parallel=True`` uses ``prange`` segment loops."""

    compiled = True

    def __init__(self, parallel: bool = False):
        require_numba()
        self.parallel = bool(parallel)
        self.name = "numba-parallel" if parallel else "numba"
        self._fns = _numba_functions(self.parallel)

    def segment_reduce(self, block, starts):
        block = np.ascontiguousarray(block)
        out = np.empty((starts.shape[0],) + block.shape[1:], dtype=block.dtype)
        if starts.shape[0]:
            self._fns["segment_reduce"](block, starts.astype(np.int64), out)
        return out

    def scale_reduce(self, data, coords, factor, starts, perm=None):
        data = np.ascontiguousarray(data)
        factor = np.ascontiguousarray(factor)
        out = np.empty((starts.shape[0], factor.shape[1]), dtype=factor.dtype)
        if starts.shape[0] == 0:
            return out
        use_perm = perm is not None
        perm64 = (perm.astype(np.int64) if use_perm
                  else np.empty(0, dtype=np.int64))
        fn = self._fns["scale_reduce_vals" if data.ndim == 1 else "scale_reduce_block"]
        fn(data, coords.astype(np.int64), factor, starts.astype(np.int64),
           perm64, use_perm, out)
        return out

    def coo_mttkrp(self, indices, values, factors, mode, out):
        self._fns["coo_mttkrp"](
            np.ascontiguousarray(indices),
            np.ascontiguousarray(values),
            tuple(np.ascontiguousarray(f) for f in factors),
            int(mode),
            out,
        )
        return out

    def pair_accumulate(self, out, fibers, block, factor, out_axis):
        if fibers.shape[0]:
            self._fns["pair_accumulate"](
                out, np.ascontiguousarray(fibers),
                np.ascontiguousarray(block),
                np.ascontiguousarray(factor), int(out_axis),
            )
        return out


_NUMBA_CACHE: dict[bool, dict] = {}


def _numba_functions(parallel: bool) -> dict:
    """Compile (once per process and parallel flag) the fused Numba loops."""
    cached = _NUMBA_CACHE.get(parallel)
    if cached is not None:
        return cached
    import numba

    njit = numba.njit(cache=False, parallel=parallel, fastmath=False)
    prange = numba.prange if parallel else range

    @njit
    def segment_reduce(block, starts, out):
        n_runs = starts.shape[0]
        n_rows = block.shape[0]
        rank = block.shape[1]
        for f in prange(n_runs):
            lo = starts[f]
            hi = starts[f + 1] if f + 1 < n_runs else n_rows
            for r in range(rank):
                out[f, r] = 0.0
            for i in range(lo, hi):
                for r in range(rank):
                    out[f, r] += block[i, r]

    @njit
    def scale_reduce_vals(values, coords, factor, starts, perm, use_perm, out):
        n_runs = starts.shape[0]
        n_rows = values.shape[0]
        rank = factor.shape[1]
        for f in prange(n_runs):
            lo = starts[f]
            hi = starts[f + 1] if f + 1 < n_runs else n_rows
            for r in range(rank):
                out[f, r] = 0.0
            for i in range(lo, hi):
                src = perm[i] if use_perm else i
                v = values[src]
                c = coords[src]
                for r in range(rank):
                    out[f, r] += v * factor[c, r]

    @njit
    def scale_reduce_block(block, coords, factor, starts, perm, use_perm, out):
        n_runs = starts.shape[0]
        n_rows = block.shape[0]
        rank = factor.shape[1]
        for f in prange(n_runs):
            lo = starts[f]
            hi = starts[f + 1] if f + 1 < n_runs else n_rows
            for r in range(rank):
                out[f, r] = 0.0
            for i in range(lo, hi):
                src = perm[i] if use_perm else i
                c = coords[src]
                for r in range(rank):
                    out[f, r] += block[src, r] * factor[c, r]

    @njit
    def coo_mttkrp(indices, values, factors, mode, out):
        nnz = indices.shape[0]
        ndim = indices.shape[1]
        rank = out.shape[1]
        tmp = np.empty_like(out[0])
        for i in range(nnz):
            for r in range(rank):
                tmp[r] = values[i]
            for j in range(ndim):
                if j != mode:
                    row = indices[i, j]
                    fj = factors[j]
                    for r in range(rank):
                        tmp[r] *= fj[row, r]
            oi = indices[i, mode]
            for r in range(rank):
                out[oi, r] += tmp[r]

    @njit
    def pair_accumulate(out, fibers, block, factor, out_axis):
        n_fibers = block.shape[0]
        rank = block.shape[1]
        other = 1 - out_axis
        for f in range(n_fibers):  # scatter: output rows repeat, stay serial
            x = fibers[f, out_axis]
            y = fibers[f, other]
            for r in range(rank):
                out[x, r] += block[f, r] * factor[y, r]

    fns = {
        "segment_reduce": segment_reduce,
        "scale_reduce_vals": scale_reduce_vals,
        "scale_reduce_block": scale_reduce_block,
        "coo_mttkrp": coo_mttkrp,
        "pair_accumulate": pair_accumulate,
    }
    _NUMBA_CACHE[parallel] = fns
    return fns


_FALLBACK_WARNED = False
_NUMPY_KERNEL = NumpyKernel()
_NUMBA_KERNELS: dict[bool, NumbaKernel] = {}


def _warn_fallback(name: str) -> None:
    global _FALLBACK_WARNED
    if not _FALLBACK_WARNED:
        warnings.warn(
            f"kernel {name!r} requested but numba is not installed; falling "
            "back to the NumPy/SciPy kernels (identical results, no compiled "
            "speedup). Install the 'compiled' extra to silence this.",
            RuntimeWarning,
            stacklevel=3,
        )
        _FALLBACK_WARNED = True


def get_kernel(name: str | None, strict: bool = False) -> KernelBackend | None:
    """Resolve a kernel backend by name (see the module docstring for names).

    Returns ``None`` for ``name=None`` — the call sites then keep their
    default engine-based NumPy path.  ``strict=True`` turns the
    numba-missing fallback into an :class:`ImportError`.
    """
    key = normalize_kernel_name(name)
    if key is None:
        return None
    if key == "auto":
        key = "numba" if numba_available() else "numpy"
    if key == "numpy":
        return _NUMPY_KERNEL
    parallel = key == "numba-parallel"
    if not numba_available():
        if strict:
            require_numba()
        _warn_fallback(key)
        return _NUMPY_KERNEL
    kernel = _NUMBA_KERNELS.get(parallel)
    if kernel is None:
        kernel = _NUMBA_KERNELS.setdefault(parallel, NumbaKernel(parallel=parallel))
    return kernel
