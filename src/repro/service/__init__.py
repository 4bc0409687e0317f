"""Decomposition-as-a-service: async job layer over the unified driver API.

Submit a :class:`DecompositionRequest` to a :class:`DecompositionService`,
get a :class:`Job` id back, then await :meth:`DecompositionService.result`
or follow per-sweep progress through :meth:`DecompositionService.stream`.
Jobs share the process-wide contraction-plan and CSF-layout caches, and
completed results land in an :class:`ArtifactCache` keyed by request content
so identical resubmissions never recompute.

>>> import asyncio
>>> import numpy as np
>>> from repro import ALSOptions, random_cp_tensor
>>> from repro.service import DecompositionRequest, DecompositionService
>>> async def demo():
...     tensor = random_cp_tensor((12, 13, 14), rank=3, seed=0).full()
...     async with DecompositionService(n_workers=2) as service:
...         job = await service.submit(
...             DecompositionRequest(tensor, ALSOptions(rank=3), seed=7)
...         )
...         result = await service.result(job.id)
...     return result.fitness > 0.5
>>> asyncio.run(demo())
True
"""

from repro.service.artifacts import ArtifactCache
from repro.service.models import (
    DecompositionRequest,
    Job,
    JobState,
    artifact_key,
    tensor_fingerprint,
)
from repro.service.progress import JobCancelled, ProgressEvent, ProgressStream
from repro.service.service import BaseService, DecompositionService

__all__ = [
    "ArtifactCache",
    "BaseService",
    "DecompositionRequest",
    "DecompositionService",
    "Job",
    "JobCancelled",
    "JobState",
    "ProgressEvent",
    "ProgressStream",
    "artifact_key",
    "tensor_fingerprint",
]
