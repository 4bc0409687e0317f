"""Lifecycle tests for the async decomposition service.

No async test plugin is assumed: every test drives its own event loop with
``asyncio.run``.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.contract import default_engine, reset_default_engine
from repro.core.multi_start import multi_start
from repro.core.options import ALSOptions, PPOptions
from repro.service import (
    BaseService,
    DecompositionRequest,
    DecompositionService,
    JobCancelled,
    JobState,
)
from repro.sparse.coo import CooTensor
from repro.sparse.csf import csf_cache_stats, reset_csf_cache_stats
from repro.tensor.cp_format import random_cp_tensor


@pytest.fixture(scope="module")
def tensor():
    return random_cp_tensor((10, 11, 12), rank=3, seed=0).full()


def run(coro):
    return asyncio.run(coro)


class TestSubmitAwait:
    def test_submit_and_await(self, tensor):
        async def main():
            async with DecompositionService(n_workers=2) as svc:
                job = await svc.submit(
                    DecompositionRequest(tensor, rank=3, seed=1)
                )
                assert job.state in (JobState.PENDING, JobState.RUNNING)
                result = await svc.result(job.id)
                assert svc.job(job.id).state is JobState.DONE
                assert svc.job(job.id).elapsed_seconds >= 0
                return result

        result = run(main())
        assert result.fitness > 0.5

    def test_all_algorithms(self, tensor):
        async def main():
            async with DecompositionService(n_workers=2) as svc:
                reqs = [
                    DecompositionRequest(tensor, rank=3, algorithm="als", seed=1),
                    DecompositionRequest(
                        tensor, algorithm="pp",
                        options=PPOptions(rank=3, n_sweeps=10), seed=1,
                    ),
                    DecompositionRequest(tensor, rank=3, algorithm="multi_start",
                                         n_starts=2, seed=1),
                ]
                jobs = [await svc.submit(r) for r in reqs]
                return [await svc.result(j.id) for j in jobs]

        als, pp, ms = run(main())
        assert als.fitness > 0.5
        assert pp.fitness > 0.5
        assert ms.n_starts == 2

    def test_unknown_job_id(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                with pytest.raises(KeyError):
                    svc.job("nope")

        run(main())

    def test_failure_surfaces_exception(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                # rank exceeding what the solver can handle is caught at
                # request level, so fail inside the run instead: non-finite
                bad = tensor.copy()
                bad[0, 0, 0] = np.nan
                job = await svc.submit(DecompositionRequest(bad, rank=3, seed=0))
                with pytest.raises(ValueError):
                    await svc.result(job.id)
                assert svc.job(job.id).state is JobState.FAILED

        run(main())


class TestBurstParity:
    def test_16_job_burst_matches_direct_multi_start(self, tensor):
        """Acceptance: >=16 concurrent jobs reproduce direct multi_start runs."""
        seeds = list(range(16))

        async def main():
            async with DecompositionService(n_workers=4, max_queue=8) as svc:
                jobs = [
                    await svc.submit(
                        DecompositionRequest(
                            tensor, algorithm="multi_start", n_starts=2,
                            options=ALSOptions(rank=3, n_sweeps=5), seed=s,
                        )
                    )
                    for s in seeds
                ]
                return [await svc.result(j.id) for j in jobs]

        results = run(main())
        for seed, result in zip(seeds, results):
            direct = multi_start(tensor, rank=3, n_starts=2, seed=seed, n_sweeps=5)
            assert result.best_index == direct.best_index
            for a, b in zip(result.factors, direct.factors):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_cross_job_plan_cache_hits(self, tensor):
        """Jobs share the process-wide ContractionEngine plan cache.

        Sparse input: its tree contractions still plan through the engine (a
        dense job's sweeps are BLAS calls and reach it with no spec at all).
        """
        sparse = CooTensor.from_dense(tensor)

        async def main():
            async with DecompositionService(n_workers=2) as svc:
                jobs = [
                    await svc.submit(DecompositionRequest(sparse, rank=3, seed=s))
                    for s in range(4)
                ]
                for job in jobs:
                    await svc.result(job.id)
                return svc.stats()

        reset_default_engine()
        stats = run(main())
        info = stats["engine"]
        assert info["hits"] > 0
        # 4 structurally identical jobs: every spec is planned at most once
        assert info["misses"] == default_engine().cache_info()["misses"]
        assert info["hits"] > 3 * info["misses"]

    def test_sparse_jobs_share_csf_layouts(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 20, size=(300, 3))
        sparse = CooTensor(coords, rng.random(300), (20, 20, 20))

        async def main():
            async with DecompositionService(n_workers=2) as svc:
                jobs = [
                    await svc.submit(
                        DecompositionRequest(
                            sparse, options=ALSOptions(rank=3, n_sweeps=3,
                                                       mttkrp="msdt"),
                            seed=s,
                        )
                    )
                    for s in range(3)
                ]
                for job in jobs:
                    await svc.result(job.id)

        reset_csf_cache_stats()
        run(main())
        stats = csf_cache_stats()
        assert stats["hits"] > 0, "jobs over one tensor must share CSF layouts"


class TestArtifacts:
    def test_resubmission_is_cache_hit(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                req = DecompositionRequest(tensor, rank=3, seed=9)
                first = await svc.submit(req)
                result_a = await svc.result(first.id)
                again = await svc.submit(
                    DecompositionRequest(tensor.copy(), rank=3, seed=9)
                )
                assert again.from_artifact_cache
                assert again.state is JobState.DONE
                result_b = await svc.result(again.id)
                return result_a, result_b, svc.stats()

        result_a, result_b, stats = run(main())
        assert result_a is result_b  # served by reference, no recompute
        assert stats["artifacts"]["hits"] == 1

    def test_unseeded_resubmission_hits(self, tensor):
        async def main():
            async with DecompositionService(seed=7) as svc:
                first = await svc.submit(DecompositionRequest(tensor, rank=3))
                await svc.result(first.id)
                assert first.resolved_seed is not None
                again = await svc.submit(DecompositionRequest(tensor, rank=3))
                return first, again

        first, again = run(main())
        assert again.from_artifact_cache

    def test_different_options_recompute(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                a = await svc.submit(DecompositionRequest(tensor, rank=3, seed=1))
                await svc.result(a.id)
                b = await svc.submit(
                    DecompositionRequest(
                        tensor, options=ALSOptions(rank=3, n_sweeps=9), seed=1
                    )
                )
                await svc.result(b.id)
                return b

        assert not run(main()).from_artifact_cache

    def test_deterministic_service_seed_reproduces(self, tensor):
        async def one_run():
            async with DecompositionService(seed=123) as svc:
                job = await svc.submit(DecompositionRequest(tensor, rank=3))
                await svc.result(job.id)
                return job.resolved_seed

        assert run(one_run()) == run(one_run())


class TestCancellation:
    def test_cancel_pending(self, tensor):
        async def main():
            # one worker busy with a long job keeps the second job pending
            async with DecompositionService(n_workers=1) as svc:
                blocker = await svc.submit(
                    DecompositionRequest(
                        tensor, options=ALSOptions(rank=3, n_sweeps=200, tol=0.0),
                        seed=0,
                    )
                )
                victim = await svc.submit(DecompositionRequest(tensor, rank=3, seed=1))
                assert svc.cancel(victim.id)
                with pytest.raises(JobCancelled):
                    await svc.result(victim.id)
                assert victim.state is JobState.CANCELLED
                svc.cancel(blocker.id)
                with pytest.raises(JobCancelled):
                    await svc.result(blocker.id)

        run(main())

    def test_cancel_running_aborts_at_sweep_boundary(self, tensor):
        async def main():
            async with DecompositionService(n_workers=1) as svc:
                job = await svc.submit(
                    DecompositionRequest(
                        tensor, options=ALSOptions(rank=3, n_sweeps=5000, tol=0.0),
                        seed=0,
                    )
                )
                # wait until it is actually running
                stream = svc.stream(job.id)
                async for event in stream:
                    if event.kind == "state" and event.state is JobState.RUNNING:
                        break
                assert svc.cancel(job.id)
                with pytest.raises(JobCancelled):
                    await svc.result(job.id)
                return job

        job = run(main())
        assert job.state is JobState.CANCELLED

    def test_cancel_terminal_returns_false(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(DecompositionRequest(tensor, rank=3, seed=0))
                await svc.result(job.id)
                return svc.cancel(job.id)

        assert run(main()) is False


class TestStreaming:
    def test_stream_sees_every_sweep(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(
                    DecompositionRequest(
                        tensor, options=ALSOptions(rank=3, n_sweeps=6, tol=0.0),
                        seed=0,
                    )
                )
                events = [e async for e in svc.stream(job.id)]
                result = await svc.result(job.id)
                return events, result

        events, result = run(main())
        sweeps = [e for e in events if e.kind == "sweep"]
        assert [e.sweep for e in sweeps] == list(range(6))
        assert sweeps[-1].fitness == pytest.approx(result.fitness)
        assert events[-1].terminal and events[-1].state is JobState.DONE

    def test_late_subscriber_gets_history_replay(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(
                    DecompositionRequest(
                        tensor, options=ALSOptions(rank=3, n_sweeps=4, tol=0.0),
                        seed=0,
                    )
                )
                await svc.result(job.id)
                # job already terminal: the stream replays, then ends
                events = [e async for e in svc.stream(job.id)]
                return events

        events = run(main())
        assert [e.sweep for e in events if e.kind == "sweep"] == list(range(4))
        assert events[-1].terminal


class TestServiceMechanics:
    def test_backpressure_queue_bound(self, tensor):
        async def main():
            async with DecompositionService(n_workers=2, max_queue=2) as svc:
                jobs = [
                    await svc.submit(
                        DecompositionRequest(
                            tensor, options=ALSOptions(rank=3, n_sweeps=2), seed=s
                        )
                    )
                    for s in range(8)
                ]
                return [await svc.result(j.id) for j in jobs]

        assert len(run(main())) == 8

    def test_lazy_start_and_idempotent_close(self, tensor):
        async def main():
            svc = DecompositionService()
            job = await svc.submit(DecompositionRequest(tensor, rank=3, seed=0))
            result = await svc.result(job.id)
            await svc.close()
            await svc.close()
            return result

        assert run(main()).fitness > 0.5

    def test_hooks_fire(self, tensor):
        calls = []

        class Hooked(DecompositionService):
            def post_submit_hook(self, job):
                calls.append(("submit", job.id))

            def post_complete_hook(self, job):
                calls.append(("complete", job.id))
                super().post_complete_hook(job)

            def post_cancel_hook(self, job):
                calls.append(("cancel", job.id))

        async def main():
            async with Hooked() as svc:
                job = await svc.submit(DecompositionRequest(tensor, rank=3, seed=0))
                await svc.result(job.id)
                assert len(svc.artifacts) == 1  # complete hook stored it
                return job

        job = run(main())
        assert ("submit", job.id) in calls
        assert ("complete", job.id) in calls

    def test_base_service_context_manager(self):
        async def main():
            async with BaseService() as svc:
                assert svc._started
            assert not svc._started

        run(main())

    def test_stats_shape(self, tensor):
        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(DecompositionRequest(tensor, rank=3, seed=0))
                await svc.result(job.id)
                return svc.stats()

        stats = run(main())
        assert stats["jobs"] == {"done": 1}
        assert {"engine", "artifacts", "csf_cache"} <= set(stats)

    def test_progress_events_published_from_worker_thread(self, tensor):
        """Sweep callbacks run off-loop; events must still arrive in order."""
        thread_ids = set()

        class Spy(DecompositionService):
            def _publish_threadsafe(self, job, event):
                thread_ids.add(threading.get_ident())
                super()._publish_threadsafe(job, event)

        async def main():
            async with Spy() as svc:
                job = await svc.submit(
                    DecompositionRequest(
                        tensor, options=ALSOptions(rank=3, n_sweeps=3, tol=0.0),
                        seed=0,
                    )
                )
                events = [e async for e in svc.stream(job.id)]
                await svc.result(job.id)
                return events

        events = run(main())
        assert threading.get_ident() not in thread_ids  # came from workers
        sweeps = [e.sweep for e in events if e.kind == "sweep"]
        assert sweeps == sorted(sweeps)

    def test_closed_loop_publish_is_counted_not_silent(self, tensor):
        """Regression: a sweep callback racing service shutdown used to drop
        its event without a trace; the loss is now counted on the job."""
        from repro.service.progress import ProgressEvent

        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(DecompositionRequest(tensor, rank=3, seed=0))
                await svc.result(job.id)
                return svc, job

        svc, job = run(main())
        assert job.dropped_events == 0  # clean runs lose nothing
        n_events = len(job.events)
        # asyncio.run closed the loop; a straggling worker-thread callback now
        # hits the RuntimeError path inside _publish_threadsafe
        svc._publish_threadsafe(job, ProgressEvent(job.id, "sweep", sweep=99))
        svc._publish_threadsafe(job, ProgressEvent(job.id, "sweep", sweep=100))
        assert job.dropped_events == 2
        assert len(job.events) == n_events  # the history really is short
