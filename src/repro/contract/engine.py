"""Process-wide einsum plan cache.

``np.einsum(..., optimize=True)`` re-runs the ``einsum_path`` search on every
call even when the subscripts and operand shapes are identical to the previous
call.  :class:`ContractionEngine` caches ``np.einsum_path`` plans keyed by
``(subscript spec, operand shapes, operand dtypes)`` and executes contractions
with the cached plan.  It is thread-safe (the batched multi-start driver and
the service run solves on worker threads against the one shared engine) and
supports preallocated output buffers via ``out=``.

There is one engine per process, :func:`default_engine`; the module-level
:func:`contract` and :func:`plan` helpers use it and nothing takes another.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "ContractionEngine",
    "default_engine",
    "reset_default_engine",
    "contract",
    "plan",
    "subscript_letters",
]

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

#: Operand count above which the path search is ``"greedy"``: the exhaustive
#: ``"optimal"`` search is exponential in it.  The kernels contract at most
#: ``order + 1`` operands, so every tensor of order <= 5 gets optimal plans.
_MAX_OPTIMAL_OPERANDS = 6

#: cache key: (spec, operand shapes, operand dtype strings)
PlanKey = Tuple[str, Tuple[Tuple[int, ...], ...], Tuple[str, ...]]


def subscript_letters(n: int, exclude: str = "") -> List[str]:
    """``n`` distinct einsum subscript letters, skipping those in ``exclude``.

    Kernels use this to build explicit specs (no ellipses, so the spec string
    alone describes the contraction structure and keys the plan cache).
    """
    pool = [c for c in _ALPHABET if c not in exclude]
    if n > len(pool):
        raise ValueError(f"cannot build {n} distinct subscripts (max {len(pool)})")
    return pool[:n]


class ContractionEngine:
    """Cache of ``np.einsum_path`` plans plus the executor that uses them."""

    def __init__(self):
        self._plans: Dict[PlanKey, list] = {}
        self._hits = 0
        self._misses = 0
        self._calls = 0
        self._lock = threading.Lock()

    def plan(self, spec: str, *operands: np.ndarray) -> list:
        """Return the cached einsum path for ``spec`` applied to ``operands``.

        A cache miss runs ``np.einsum_path`` once and stores the result; every
        later call with the same spec/shapes/dtypes is a hit.
        """
        ops = [np.asarray(op) for op in operands]
        key = (spec, tuple(op.shape for op in ops), tuple(op.dtype.str for op in ops))
        with self._lock:
            path = self._plans.get(key)
            if path is not None:
                self._hits += 1
                return path
            self._misses += 1
        strategy = "optimal" if len(ops) <= _MAX_OPTIMAL_OPERANDS else "greedy"
        path, _ = np.einsum_path(spec, *ops, optimize=strategy)
        with self._lock:
            # another thread may have planned the same key concurrently; keep
            # the first inserted plan so the cached path is stable
            return self._plans.setdefault(key, list(path))

    def contract(self, spec: str, *operands: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Execute ``np.einsum(spec, *operands)`` with the cached plan.

        When ``out`` is given it is filled in place and returned, so
        steady-state inner loops allocate nothing.
        """
        ops = [np.asarray(op) for op in operands]
        path = self.plan(spec, *ops)
        result = np.einsum(spec, *ops, out=out, optimize=path)
        with self._lock:
            self._calls += 1
        return result

    def cache_info(self) -> dict:
        """Plan-cache counters: cached ``plans``, ``hits``, ``misses`` and
        executed ``calls``."""
        with self._lock:
            return {"plans": len(self._plans), "hits": self._hits,
                    "misses": self._misses, "calls": self._calls}

    def clear(self) -> None:
        """Drop every cached plan and zero the counters."""
        with self._lock:
            self._plans.clear()
            self._hits = self._misses = self._calls = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"ContractionEngine(plans={info['plans']}, hits={info['hits']}, "
            f"misses={info['misses']})"
        )


# -- process-wide default engine -------------------------------------------

_default_engine = ContractionEngine()
_default_engine_lock = threading.Lock()


def default_engine() -> ContractionEngine:
    """The process-wide engine every einsum of the package runs on."""
    return _default_engine


def reset_default_engine() -> ContractionEngine:
    """Replace the process-wide engine with a fresh one (cold plan cache)."""
    global _default_engine
    with _default_engine_lock:
        _default_engine = ContractionEngine()
        return _default_engine


def contract(spec: str, *operands: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """:meth:`ContractionEngine.contract` on the process-wide engine."""
    return default_engine().contract(spec, *operands, out=out)


def plan(spec: str, *operands: np.ndarray) -> list:
    """:meth:`ContractionEngine.plan` on the process-wide engine."""
    return default_engine().plan(spec, *operands)
