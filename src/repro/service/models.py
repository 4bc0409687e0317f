"""Request/job data model of the decomposition service.

A :class:`DecompositionRequest` is the one client-facing description of a
decomposition: the tensor (dense ndarray or sparse
:class:`~repro.sparse.CooTensor`), the algorithm (any name in the sequential
registry of :mod:`repro.core.algorithms` — ``"als"``, ``"pp"``, ``"nncp"``,
``"masked"`` — or ``"multi_start"``), an
:class:`~repro.core.options.ALSOptions`-family bundle for every solver
setting, an optional observation ``mask`` for the masked family, and an
optional root seed.  Construction normalizes the request — a seed carried
inside the bundle is hoisted into :attr:`DecompositionRequest.seed` — so one
canonical form reaches the queue, the workers and the artifact key.

:func:`tensor_fingerprint` hashes the tensor *content* (shape, dtype and the
nonzero pattern/values), so two structurally identical submissions share an
artifact-cache entry even when they are distinct objects.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.algorithms import available_algorithms, get_algorithm
from repro.core.masked_cp_als import normalize_mask
from repro.core.options import (
    ALSOptions,
    MaskedOptions,
    ParallelOptions,
    check_options,
)
from repro.sparse.coo import CooTensor
from repro.utils.validation import check_positive_int

__all__ = [
    "JobState",
    "DecompositionRequest",
    "Job",
    "artifact_key",
    "tensor_fingerprint",
]


def _service_algorithms() -> tuple[str, ...]:
    """Names the service accepts: every registered sequential algorithm plus
    the ``multi_start`` meta-driver that batches any of them."""
    return (*available_algorithms(), "multi_start")


class JobState(enum.Enum):
    """Lifecycle of a service job.

    ``PENDING -> RUNNING -> DONE | FAILED | CANCELLED``; a pending job can
    also move straight to ``CANCELLED`` (before a worker picks it up) or to
    ``DONE`` (artifact-cache hit at submission).
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def tensor_fingerprint(tensor: np.ndarray | CooTensor) -> str:
    """Content hash of a dense or sparse tensor (hex sha256).

    The fingerprint covers shape, dtype and the full value content (for
    sparse tensors: the canonical index matrix plus the value vector), so it
    identifies the mathematical tensor rather than the Python object — the
    artifact cache keys on it.
    """
    digest = hashlib.sha256()
    if isinstance(tensor, CooTensor):
        digest.update(b"coo")
        digest.update(repr(tensor.shape).encode())
        digest.update(str(tensor.dtype).encode())
        digest.update(np.ascontiguousarray(tensor.indices).tobytes())
        digest.update(np.ascontiguousarray(tensor.values).tobytes())
    else:
        arr = np.asarray(tensor)
        digest.update(b"dense")
        digest.update(repr(arr.shape).encode())
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@dataclass
class DecompositionRequest:
    """Everything a client specifies to get a decomposition.

    Parameters
    ----------
    tensor:
        Dense ndarray or sparse :class:`~repro.sparse.CooTensor`.
    options:
        An :class:`~repro.core.options.ALSOptions`-family bundle, of the
        class the algorithm registers (e.g. ``"nncp"`` takes an
        :class:`~repro.core.options.NNOptions`; ``"multi_start"`` takes any
        sequential bundle).  A ``seed`` inside the bundle is hoisted into
        :attr:`seed` so the request has exactly one seed channel.
    algorithm:
        Any name in the sequential-algorithm registry
        (:func:`repro.core.algorithms.available_algorithms` — ``"als"``,
        ``"pp"``, ``"nncp"``, ``"masked"``) or ``"multi_start"``
        (:func:`~repro.core.multi_start.multi_start`; the inner solver follows
        the options bundle type).
    n_starts:
        Number of random starts (only meaningful for ``"multi_start"``).
    mask:
        Observed-entry pattern for the masked family (``algorithm="masked"``
        or ``"multi_start"`` with a :class:`~repro.core.options.MaskedOptions`
        bundle): a boolean/0-1 ndarray or a :class:`~repro.sparse.CooTensor`
        whose stored pattern marks the observed entries.  Required for dense
        masked tensors; for sparse masked tensors ``None`` means "the stored
        nonzeros are the observations".  Rejected for every other algorithm.
    seed:
        Root seed.  ``None`` lets the service derive a per-job seed from its
        own root :class:`numpy.random.SeedSequence`; the artifact key still
        treats two ``seed=None`` submissions as identical, so resubmission is
        a cache hit (the derived seed of the first run is recorded on the job
        as ``resolved_seed``).
    """

    tensor: Any
    options: ALSOptions
    algorithm: str = "als"
    n_starts: int = 8
    seed: int | None = None
    mask: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.tensor, (np.ndarray, CooTensor)):
            raise TypeError(
                "tensor must be a numpy ndarray or CooTensor, got "
                f"{type(self.tensor).__name__}"
            )
        algorithms = _service_algorithms()
        if self.algorithm not in algorithms:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; available: {sorted(algorithms)}"
            )
        self.n_starts = check_positive_int(self.n_starts, "n_starts")
        if isinstance(self.options, ParallelOptions):
            raise TypeError(
                "the service runs the sequential solvers; pass an "
                "ALSOptions-family bundle, not a parallel bundle"
            )
        check_options(self.options, ALSOptions)
        if self.algorithm != "multi_start":
            spec = get_algorithm(self.algorithm)
            if not isinstance(self.options, spec.options_cls):
                raise TypeError(
                    f"algorithm {self.algorithm!r} requires a "
                    f"{spec.options_cls.__name__} bundle, got "
                    f"{type(self.options).__name__}"
                )
        self._validate_mask()
        # one seed channel: hoist a bundle-borne seed onto the request
        if self.options.seed is not None:
            if self.seed is not None and self.seed != self.options.seed:
                raise ValueError(
                    f"seed={self.seed} conflicts with options.seed={self.options.seed}"
                )
            self.seed = self.options.seed
            self.options = dataclasses.replace(self.options, seed=None)

    @property
    def masked(self) -> bool:
        """Whether the request runs the masked family (directly or batched)."""
        return self.algorithm == "masked" or (
            self.algorithm == "multi_start" and isinstance(self.options, MaskedOptions)
        )

    def _validate_mask(self) -> None:
        if not self.masked:
            if self.mask is not None:
                raise TypeError(
                    f"algorithm {self.algorithm!r} does not accept a mask; "
                    "masked decomposition runs under algorithm='masked' (or "
                    "multi_start with a MaskedOptions bundle)"
                )
            return
        if self.mask is None:
            if not isinstance(self.tensor, CooTensor):
                raise ValueError(
                    "dense masked decomposition requires an explicit mask "
                    "(for sparse tensors the stored nonzeros stand in)"
                )
            return
        if not isinstance(self.mask, (np.ndarray, CooTensor)):
            raise TypeError(
                "mask must be a numpy ndarray or CooTensor, got "
                f"{type(self.mask).__name__}"
            )
        tensor_shape = tuple(self.tensor.shape)
        mask_shape = tuple(self.mask.shape)
        if mask_shape != tensor_shape:
            raise ValueError(
                f"mask shape {mask_shape} does not match tensor shape {tensor_shape}"
            )

    def fingerprint(self) -> str:
        """Content hash of the request's tensor (see :func:`tensor_fingerprint`)."""
        return tensor_fingerprint(self.tensor)

    def mask_fingerprint(self) -> str | None:
        """Content hash of the canonical observed-entry pattern.

        ``None`` for non-masked requests.  Masked requests hash the
        *normalized* index set (:func:`repro.core.masked_cp_als.normalize_mask`),
        so a boolean array and a :class:`~repro.sparse.CooTensor` with the
        same pattern — or a sparse tensor with ``mask=None`` and the same
        tensor passed with its own pattern as an explicit mask — share a key.
        """
        if not self.masked:
            return None
        indices = normalize_mask(self.tensor, self.mask)
        digest = hashlib.sha256()
        digest.update(b"mask")
        digest.update(repr(tuple(self.tensor.shape)).encode())
        digest.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
        return digest.hexdigest()


def artifact_key(request: DecompositionRequest) -> tuple:
    """Canonical artifact-cache key of a request.

    Two requests collide exactly when they describe the same computation:
    same tensor content, algorithm, options bundle, start count, client
    seed (``None`` counts as a value, so unseeded resubmissions hit the
    cache of the first unseeded run) and — for the masked family — the same
    canonical observed-entry pattern.
    """
    return (
        request.fingerprint(),
        request.algorithm,
        request.options.cache_key(),
        request.n_starts if request.algorithm == "multi_start" else 1,
        request.seed,
        request.mask_fingerprint(),
    )


@dataclass
class Job:
    """One submitted decomposition tracked through its lifecycle."""

    id: str
    request: DecompositionRequest
    state: JobState = JobState.PENDING
    #: seed the run actually used (the request seed, or the service-derived one)
    resolved_seed: int | None = None
    result: Any = None
    error: BaseException | None = None
    from_artifact_cache: bool = False
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: set by :meth:`DecompositionService.cancel`; the sweep callback checks it
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: full progress-event history (replayed to late stream subscribers)
    events: list = field(default_factory=list, repr=False)
    #: progress events that could not be delivered because the service's event
    #: loop was already closed (shutdown racing a worker thread); a nonzero
    #: count means :attr:`events` is incomplete, not that the run misbehaved
    dropped_events: int = 0

    @property
    def done(self) -> bool:
        return self.state.terminal

    @property
    def elapsed_seconds(self) -> float | None:
        """Wall-clock run time (``None`` until the job finishes running)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at
