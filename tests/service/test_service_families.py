"""Service-layer tests of the registry-dispatched decomposition families."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.masked_cp_als import MaskedALSResult
from repro.core.options import ALSOptions, MaskedOptions, NNOptions
from repro.service import DecompositionRequest, DecompositionService, JobState
from repro.service.models import artifact_key
from repro.sparse.coo import CooTensor
from repro.tensor.cp_format import random_cp_tensor

RANK = 3
SHAPE = (8, 7, 6)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def tensor():
    return np.abs(random_cp_tensor(SHAPE, rank=RANK, seed=42).full())


@pytest.fixture(scope="module")
def mask():
    return np.random.default_rng(7).random(SHAPE) < 0.5


def _submit_and_wait(request):
    async def main():
        async with DecompositionService(n_workers=2) as service:
            job = await service.submit(request)
            await service.result(job.id)
            return job

    return run(main())


class TestDispatch:
    def test_nncp_job(self, tensor):
        job = _submit_and_wait(DecompositionRequest(
            tensor, algorithm="nncp",
            options=NNOptions(rank=RANK, n_sweeps=6), seed=1))
        assert job.state is JobState.DONE
        assert all((f >= 0).all() for f in job.result.factors)
        assert job.result.options["update"] == "hals"

    def test_masked_job(self, tensor, mask):
        job = _submit_and_wait(DecompositionRequest(tensor, MaskedOptions(rank=RANK),
                                                    algorithm="masked", seed=1,
                                                    mask=mask))
        assert job.state is JobState.DONE
        assert isinstance(job.result, MaskedALSResult)
        assert job.result.n_observed == int(mask.sum())

    def test_sparse_masked_job_defaults_to_nnz_pattern(self, tensor, mask):
        sparse = CooTensor.from_dense(np.where(mask, tensor, 0.0))
        job = _submit_and_wait(DecompositionRequest(sparse, MaskedOptions(rank=RANK),
                                                    algorithm="masked", seed=1))
        assert job.state is JobState.DONE
        assert job.result.n_observed == sparse.nnz

    def test_multi_start_infers_family_from_bundle(self, tensor, mask):
        job = _submit_and_wait(DecompositionRequest(
            tensor, algorithm="multi_start", n_starts=2, mask=mask,
            options=MaskedOptions(rank=RANK, n_sweeps=4), seed=2))
        assert job.state is JobState.DONE
        assert job.result.algorithm == "masked"
        assert isinstance(job.result.best, MaskedALSResult)

    def test_sweep_events_stream_for_new_families(self, tensor):
        job = _submit_and_wait(DecompositionRequest(
            tensor, algorithm="nncp",
            options=NNOptions(rank=RANK, n_sweeps=4, tol=0.0), seed=1))
        sweeps = [e for e in job.events if e.kind == "sweep"]
        assert [e.sweep for e in sweeps] == [0, 1, 2, 3]


class TestRequestValidation:
    def test_default_bundle_follows_registry(self, tensor):
        assert isinstance(
            DecompositionRequest(tensor, NNOptions(rank=RANK), algorithm="nncp").options,
            NNOptions,
        )
        sparse = CooTensor.from_dense(tensor)
        assert isinstance(
            DecompositionRequest(sparse, MaskedOptions(rank=RANK), algorithm="masked").options,
            MaskedOptions,
        )

    def test_registered_bundle_class_enforced(self, tensor):
        with pytest.raises(TypeError, match="NNOptions"):
            DecompositionRequest(tensor, algorithm="nncp",
                                 options=ALSOptions(rank=RANK))

    def test_mask_only_for_masked_family(self, tensor, mask):
        with pytest.raises(TypeError, match="does not accept a mask"):
            DecompositionRequest(tensor, ALSOptions(rank=RANK), algorithm="als",
                                 mask=mask)

    def test_dense_masked_requires_mask(self, tensor):
        with pytest.raises(ValueError, match="explicit mask"):
            DecompositionRequest(tensor, MaskedOptions(rank=RANK), algorithm="masked")

    def test_mask_shape_checked(self, tensor, mask):
        with pytest.raises(ValueError, match="mask shape"):
            DecompositionRequest(tensor, MaskedOptions(rank=RANK), algorithm="masked",
                                 mask=mask[:4])

    def test_mask_type_checked(self, tensor):
        with pytest.raises(TypeError, match="mask must be"):
            DecompositionRequest(tensor, MaskedOptions(rank=RANK), algorithm="masked",
                                 mask=[[1, 0]])


class TestMaskArtifactKey:
    def test_same_pattern_different_dtype_collides(self, tensor, mask):
        a = DecompositionRequest(tensor, MaskedOptions(rank=RANK), algorithm="masked",
                                 seed=1, mask=mask)
        b = DecompositionRequest(tensor, MaskedOptions(rank=RANK), algorithm="masked",
                                 seed=1, mask=mask.astype(np.float32))
        assert artifact_key(a) == artifact_key(b)

    def test_different_pattern_distinct(self, tensor, mask):
        flipped = mask.copy()
        flipped[0, 0, 0] = not flipped[0, 0, 0]
        a = DecompositionRequest(tensor, MaskedOptions(rank=RANK), algorithm="masked",
                                 seed=1, mask=mask)
        b = DecompositionRequest(tensor, MaskedOptions(rank=RANK), algorithm="masked",
                                 seed=1, mask=flipped)
        assert artifact_key(a) != artifact_key(b)

    def test_non_masked_requests_have_no_mask_component(self, tensor):
        req = DecompositionRequest(tensor, ALSOptions(rank=RANK), seed=1)
        assert req.mask_fingerprint() is None

    def test_masked_resubmission_is_cache_hit(self, tensor, mask):
        async def main():
            async with DecompositionService(n_workers=1) as service:
                first = await service.submit(DecompositionRequest(tensor,
                                                                  MaskedOptions(rank=RANK),
                                                                  algorithm="masked",
                                                                  seed=3, mask=mask))
                await service.result(first.id)
                second = await service.submit(DecompositionRequest(tensor,
                                                                   MaskedOptions(rank=RANK),
                                                                   algorithm="masked",
                                                                   seed=3,
                                                                   mask=mask.copy()))
                await service.result(second.id)
                return first, second

        first, second = run(main())
        assert not first.from_artifact_cache
        assert second.from_artifact_cache
        assert second.result is first.result
