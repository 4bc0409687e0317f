"""Decomposition-as-a-service: an asyncio job layer over the CP drivers.

Clients submit :class:`~repro.service.models.DecompositionRequest` objects to
a :class:`DecompositionService` and get a :class:`~repro.service.models.Job`
back immediately; the run itself happens on a worker thread pool behind a
bounded asyncio queue.  All jobs in one process share the process-wide
:class:`~repro.contract.ContractionEngine` plan cache and the per-tensor CSF
layout cache (:func:`repro.sparse.csf_cache_stats`), so a burst of jobs over
the same tensor amortizes its contraction plans and sparse layouts exactly
like a single multi-start run does.

The service layer follows the thin-service idiom: :class:`BaseService` holds
lifecycle (async context manager) plus ``post_*_hook`` methods dispatched
after each lifecycle step, and :class:`DecompositionService` implements the
hooks — most importantly :meth:`DecompositionService.post_complete_hook`,
which records every successful result in the
:class:`~repro.service.artifacts.ArtifactCache` so an identical resubmission
is served without recompute.

Request flow::

    submit(request)
        -> artifact cache probe  (hit: job is DONE immediately)
        -> bounded asyncio queue (backpressure when full)
        -> worker task -> thread pool -> decompose (the bundle picks als /
           pp / nncp / masked) or multi_start
             sweep callback -> ProgressEvent stream + cancellation check
        -> post_complete_hook -> artifact cache
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.contract import default_engine
from repro.core.decompose import decompose
from repro.core.multi_start import multi_start
from repro.service.artifacts import ArtifactCache
from repro.service.models import DecompositionRequest, Job, JobState, artifact_key
from repro.service.progress import JobCancelled, ProgressEvent, ProgressStream
from repro.sparse.csf import csf_cache_stats
from repro.utils.validation import check_positive_int

__all__ = ["BaseService", "DecompositionService"]


class BaseService:
    """Thin async service base: lifecycle plus post-action hooks.

    Subclasses implement the actual work and override the ``post_*_hook``
    methods to attach follow-up behaviour (artifact persistence, metrics,
    notifications) without threading it through the submission path.  Hooks
    run on the event loop after the corresponding lifecycle step and must not
    block.
    """

    def __init__(self) -> None:
        self._started = False

    async def start(self) -> None:
        """Bring the service up (idempotent)."""
        self._started = True

    async def close(self) -> None:
        """Tear the service down (idempotent)."""
        self._started = False

    async def __aenter__(self) -> "BaseService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- hooks -----------------------------------------------------------------
    def post_submit_hook(self, job: Job) -> None:
        """Called after a job is accepted (queued or served from cache)."""

    def post_complete_hook(self, job: Job) -> None:
        """Called after a job finishes successfully."""

    def post_failure_hook(self, job: Job) -> None:
        """Called after a job fails with an exception."""

    def post_cancel_hook(self, job: Job) -> None:
        """Called after a job is cancelled."""


class DecompositionService(BaseService):
    """Async decomposition service over the sequential CP drivers.

    Parameters
    ----------
    n_workers:
        Concurrent jobs (worker tasks backed by one thread pool).  NumPy
        releases the GIL inside the contractions, so worker threads overlap.
    max_queue:
        Bound of the submission queue; :meth:`submit` applies backpressure
        (awaits) when the queue is full.
    seed:
        Root seed of the service's :class:`numpy.random.SeedSequence`.
        Unseeded requests get deterministic per-job seeds spawned from it, so
        a service constructed with a fixed seed is reproducible end to end.
    artifact_cache:
        Shared :class:`~repro.service.artifacts.ArtifactCache` (a private one
        with ``max_artifacts`` entries is created when omitted).
    max_cache_bytes:
        Process-wide budget for the dimension-tree caches, split evenly
        across workers and passed to every driver as its per-run bound.
    """

    def __init__(
        self,
        n_workers: int = 2,
        max_queue: int = 64,
        seed: int | None = None,
        artifact_cache: ArtifactCache | None = None,
        max_artifacts: int = 128,
        max_cache_bytes: int | None = None,
    ):
        super().__init__()
        self.n_workers = check_positive_int(n_workers, "n_workers")
        self.max_queue = check_positive_int(max_queue, "max_queue")
        self.artifacts = artifact_cache if artifact_cache is not None else ArtifactCache(
            max_entries=max_artifacts
        )
        self.max_cache_bytes = max_cache_bytes
        self._seed_seq = np.random.SeedSequence(seed)
        self._jobs: dict[str, Job] = {}
        self._streams: dict[str, list[ProgressStream]] = {}
        self._queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._counter = 0

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._executor = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-service"
        )
        self._workers = [
            asyncio.ensure_future(self._worker()) for _ in range(self.n_workers)
        ]
        self._started = True

    async def close(self) -> None:
        if not self._started:
            return
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None
        self._queue = None
        self._started = False

    # -- submission ------------------------------------------------------------
    async def submit(self, request: DecompositionRequest) -> Job:
        """Accept ``request`` and return its :class:`Job` immediately.

        An artifact-cache hit returns a job already in ``DONE`` state (with
        ``from_artifact_cache=True``); otherwise the job is queued, which
        awaits when the queue is at ``max_queue`` (backpressure).
        """
        if not self._started:
            await self.start()
        assert self._queue is not None
        self._counter += 1
        job = Job(id=f"job-{self._counter:04d}", request=request,
                  submitted_at=time.time())
        self._jobs[job.id] = job
        job._done = asyncio.Event()  # loop-affine; created on the service loop

        cached = self.artifacts.get(artifact_key(request))
        if cached is not None:
            job.result = cached
            job.from_artifact_cache = True
            self._finish(job, JobState.DONE)
            self.post_submit_hook(job)
            return job

        if request.seed is not None:
            job.resolved_seed = request.seed
        else:
            # deterministic per-job seed derived from the service root
            job.resolved_seed = int(self._seed_seq.spawn(1)[0].generate_state(1)[0])
        await self._queue.put(job)
        self.post_submit_hook(job)
        return job

    async def result(self, job_id: str):
        """Wait for ``job_id`` to finish and return its result.

        Raises the job's exception for failed jobs and
        :class:`~repro.service.progress.JobCancelled` for cancelled ones.
        """
        job = self.job(job_id)
        await job._done.wait()
        if job.state is JobState.FAILED:
            assert job.error is not None
            raise job.error
        if job.state is JobState.CANCELLED:
            raise JobCancelled(job_id)
        return job.result

    def job(self, job_id: str) -> Job:
        """The tracked :class:`Job` for ``job_id`` (KeyError when unknown)."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id!r}") from None

    def cancel(self, job_id: str) -> bool:
        """Request cancellation of ``job_id``.

        Pending jobs are cancelled immediately; running jobs get their cancel
        flag set and abort at the next sweep boundary (the sweep callback
        raises).  Returns ``False`` when the job is already terminal.
        """
        job = self.job(job_id)
        if job.state.terminal:
            return False
        job.cancel_event.set()
        if job.state is JobState.PENDING:
            # the worker skips non-pending jobs when it dequeues them
            self._finish(job, JobState.CANCELLED)
        return True

    def stream(self, job_id: str) -> ProgressStream:
        """An async iterator over the job's progress events.

        History is replayed first (so a late subscriber sees every sweep),
        then live events follow; iteration ends after the terminal state
        event.  Must be called from the service's event loop.
        """
        job = self.job(job_id)
        stream = ProgressStream(job_id)
        for event in job.events:
            stream.publish(event)
        if job.state.terminal:
            stream.close()
        else:
            self._streams.setdefault(job_id, []).append(stream)
        return stream

    def stats(self) -> dict:
        """Service-wide counters: job states plus every shared-cache report."""
        by_state: dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "jobs": dict(sorted(by_state.items())),
            "n_workers": self.n_workers,
            "engine": default_engine().cache_info(),
            "artifacts": self.artifacts.stats(),
            "csf_cache": csf_cache_stats(),
        }

    # -- hooks -----------------------------------------------------------------
    def post_complete_hook(self, job: Job) -> None:
        """Record the finished result so identical resubmissions are cache hits."""
        if not job.from_artifact_cache:
            self.artifacts.put(artifact_key(job.request), job.result)

    # -- internals -------------------------------------------------------------
    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                if job.state is not JobState.PENDING:
                    continue  # cancelled while queued
                await self._run(job)
            finally:
                self._queue.task_done()

    async def _run(self, job: Job) -> None:
        assert self._loop is not None and self._executor is not None
        job.state = JobState.RUNNING
        job.started_at = time.time()
        self._publish(job, ProgressEvent(job.id, "state", state=JobState.RUNNING))
        try:
            job.result = await self._loop.run_in_executor(
                self._executor, self._execute, job
            )
        except JobCancelled:
            self._finish(job, JobState.CANCELLED)
            self.post_cancel_hook(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = exc
            self._finish(job, JobState.FAILED)
            self.post_failure_hook(job)
        else:
            self._finish(job, JobState.DONE)
            self.post_complete_hook(job)

    def _execute(self, job: Job):
        """Run the request's driver on a worker thread (blocking)."""
        request = job.request
        options = dataclasses.replace(request.options, seed=job.resolved_seed)

        def callback(sweep: int, factors, fitness: float) -> None:
            if job.cancel_event.is_set():
                raise JobCancelled(job.id)
            self._publish_threadsafe(
                job, ProgressEvent(job.id, "sweep", sweep=sweep, fitness=fitness)
            )

        extra: dict = {"callback": callback}
        if self.max_cache_bytes is not None:
            extra["max_cache_bytes"] = max(self.max_cache_bytes // self.n_workers, 1)
        if request.mask is not None:
            extra["mask"] = request.mask
        if request.algorithm == "multi_start":
            return multi_start(
                request.tensor, options, n_starts=request.n_starts, **extra
            )
        return decompose(request.tensor, options, **extra)

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished_at = time.time()
        self._publish(job, ProgressEvent(job.id, "state", state=state))
        for stream in self._streams.pop(job.id, []):
            stream.close()
        job._done.set()

    def _publish(self, job: Job, event: ProgressEvent) -> None:
        job.events.append(event)
        for stream in self._streams.get(job.id, []):
            stream.publish(event)

    def _publish_threadsafe(self, job: Job, event: ProgressEvent) -> None:
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(self._publish, job, event)
        except RuntimeError:
            # loop already closed (service shutting down mid-run): the event
            # cannot be delivered, but losing it silently made the history
            # look complete — record the loss on the job instead
            job.dropped_events += 1
