"""Frozen reference kernels that every timing is divided by.

Machine speed on the shared container drifts by tens of percent in episodes
of 10-40 s that slow BLAS, memory-bound and interpreter code together, so a
raw minimum over rounds still moves run to run.  Each timing metric is
therefore reported as ``min(op) * REF_NOMINAL_S[ref] / min(ref)`` where the
reference kernel was measured interleaved with the operation, in the same
rounds.  The unit stays seconds and reads as "seconds on a quiet machine".

The kernels are NumPy / pure Python only and never import ``repro``: a change
to the program under test cannot move them.  Their inputs come from a fixed
internal seed, not from ``--seed``, so they do identical work in every run of
every workload.  They write into buffers allocated (and touched) once: a
kernel that allocates its 20-MB temporaries afresh on every call mostly times
the page faults, which vary by 40 % with the state of the machine's memory,
and puts the harness's own temporaries on top of the program's peak RSS.  Do
not edit the kernels or the constants: every number a later PR compares
against depends on them.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REF_NOMINAL_S", "ReferenceKernels"]

#: quiet-machine seconds of each kernel on the 2-vCPU reference container:
#: the median, over 32 full harness runs, of the run's minimum.  Frozen.
REF_NOMINAL_S = {
    "blas": 0.0134,
    "mem": 0.0208,
    "py": 0.0106,
}

_BLAS_N = 600
_MEM_ROWS = 1200
_MEM_RANK = 16
_MEM_NNZ = 150_000
_PY_ITERS = 300_000


class ReferenceKernels:
    """The three kernels over preallocated, fixed inputs."""

    names = ("blas", "mem", "py")

    def __init__(self) -> None:
        rng = np.random.default_rng(20210517)
        self._a = rng.random((_BLAS_N, _BLAS_N))
        self._b = rng.random((_BLAS_N, _BLAS_N))
        self._panel_a = rng.random((_MEM_ROWS, _MEM_RANK))
        self._panel_b = rng.random((_MEM_ROWS, _MEM_RANK))
        self._rows_a = rng.integers(0, _MEM_ROWS, size=_MEM_NNZ)
        self._rows_b = rng.integers(0, _MEM_ROWS, size=_MEM_NNZ)
        # sorted runs of mean length 8: the fiber structure of a CSF level
        cuts = np.sort(rng.choice(_MEM_NNZ - 1, size=_MEM_NNZ // 8 - 1,
                                  replace=False)) + 1
        self._starts = np.concatenate(([0], cuts))
        self._c = np.zeros((_BLAS_N, _BLAS_N))
        self._d = np.zeros((_BLAS_N, _BLAS_N))
        self._block_a = np.zeros((_MEM_NNZ, _MEM_RANK))
        self._block_b = np.zeros((_MEM_NNZ, _MEM_RANK))
        self._reduced = np.zeros((self._starts.shape[0], _MEM_RANK))

    def blas(self) -> float:
        """Two 600x600 float64 matmuls (the dense TTM regime)."""
        start = time.perf_counter()
        np.matmul(self._a, self._b, out=self._c)
        np.matmul(self._c, self._a, out=self._d)
        return time.perf_counter() - start

    def mem(self) -> float:
        """Gather two panels at random rows, multiply, segment-reduce.

        The shape of the sparse kernels (gather - Hadamard - ``reduceat``).
        """
        start = time.perf_counter()
        np.take(self._panel_a, self._rows_a, axis=0, out=self._block_a, mode="clip")
        np.take(self._panel_b, self._rows_b, axis=0, out=self._block_b, mode="clip")
        np.multiply(self._block_a, self._block_b, out=self._block_a)
        np.add.reduceat(self._block_a, self._starts, axis=0, out=self._reduced)
        return time.perf_counter() - start

    def py(self) -> float:
        """A 3e5-iteration integer loop (the interpreter-bound regime)."""
        start = time.perf_counter()
        acc = 0
        for i in range(_PY_ITERS):
            acc += i
        return time.perf_counter() - start

    def measure(self) -> dict[str, float]:
        """Run each kernel once; seconds by kernel name."""
        return {"blas": self.blas(), "mem": self.mem(), "py": self.py()}
