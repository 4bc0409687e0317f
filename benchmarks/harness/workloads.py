"""The four workloads: their inputs, operations, metrics and checks.

Every workload reports the same seven end-to-end metrics.  Which layers each
one exercises, and why it exists, is written in its class docstring and, in
one line, in ``BENCHMARK.json``.  All calls into ``repro`` go through
:mod:`layers`.
"""

from __future__ import annotations

import functools
import statistics
import time

import layers
from layers import probe, timed
from probes import SHORT_RUN, STEADY_FROM, LayerProbes, same_factors
from protocol import Operation, OpResult, Tally
from tracing import NullTracer, Tracer

__all__ = ["WORKLOADS"]

#: exact sweeps behind every warm start, so that PP enters its approximated
#: phase at once and stays there: over 40 seeds at least 10 approximated
#: sweeps follow (the workloads need 8); after 10 warm-up sweeps as few as 5
WARM_SWEEPS = 30


class SweepClock:
    """A driver ``callback=`` that stamps the end of every sweep it is told of.

    PP does not call back after a ``pp-init`` step, so stamps are keyed by the
    sweep index the driver passes, not by call count.
    """

    def __init__(self) -> None:
        self.stamps: dict[int, float] = {}
        self.start = time.perf_counter()

    def __call__(self, sweep: int, factors, fitness: float) -> None:
        self.stamps[sweep] = time.perf_counter()

    def segments(self, prefix: str, end: float) -> dict[str, float]:
        """Seconds between consecutive callbacks, by the later sweep's index,
        plus ``tail``: from the last callback to the request's return."""
        out = {}
        previous = self.start
        for sweep in sorted(self.stamps):
            out[f"{prefix}.seg.{sweep}"] = self.stamps[sweep] - previous
            previous = self.stamps[sweep]
        out[f"{prefix}.seg.tail"] = end - previous
        return out


def clocked(prefix: str, request, *args, **kwargs):
    """Run ``request(..., callback=clock)``; ``(segment timings, result)``."""
    clock = SweepClock()
    result = request(*args, callback=clock, **kwargs)
    return clock.segments(prefix, time.perf_counter()), result


def whole(samples, stat, prefix: str) -> float:
    """A request's time as the sum of its segments under ``stat``.

    With ``stat = min`` this is the run in which every sweep was as fast as
    its best round.  A 5-ms segment finds an undisturbed moment in most
    rounds, a 0.5-s request in almost none (on this machine the median of any
    kernel is 1.2x its minimum), so the sum of segment minima repeats about
    twice as well as the minimum of the whole.
    """
    return sum(stat(name) for name in samples.names(f"{prefix}.seg."))


def steady_exact(result) -> list[int]:
    return list(range(STEADY_FROM, result.n_sweeps))


def steady_approx(result) -> list[int]:
    """Approximated sweeps whose segment holds no ``pp-init`` step."""
    types = layers.sweep_types(result)
    return [i for i in range(1, len(types))
            if types[i] == "pp-approx" and types[i - 1] == "pp-approx"]


def segment_mean(stat, prefix: str, sweeps: list[int]) -> float:
    return statistics.fmean(stat(f"{prefix}.seg.{i}") for i in sweeps)


def result_repeat(result) -> dict:
    return {"fitness": result.fitness, "n_sweeps": result.n_sweeps,
            "types": tuple(layers.sweep_types(result))}


class Workload:
    """Shared plumbing; subclasses define inputs, operations and metrics."""

    name = ""
    #: the reference kernel every timing of this workload is divided by
    reference = ""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.errors = layers.ProbeErrors()
        #: exact values noted outside the timed samples (counts, ratios, MB)
        self.facts: dict[str, float] = {}
        #: the per-layer probes; set by :meth:`probe_tensor`
        self.probes: LayerProbes

    def probe_tensor(self, tensor, rank, start, warm) -> None:
        """Choose the tensor the per-layer probes work on (see LayerProbes)."""
        self.probes = LayerProbes(tensor, rank, start, warm, self.seed,
                                  self.errors, self.facts, self.extra_probes)

    def extra_probes(self, timings: dict) -> None:
        """Workload-specific probes of one round, added to ``timings``."""

    # -- to be provided ------------------------------------------------------
    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def end_to_end(self, samples, stat, payloads) -> dict[str, float]:
        """Raw seconds of the six timing metrics under ``stat``, one of the
        statistics of ``samples`` (``samples.min``, ``samples.median``, ...)."""
        raise NotImplementedError

    def checks(self, payloads, tally: Tally) -> None:
        """Cross-operation correctness checks, counted on ``tally``."""

    def layer_values(self, samples, payloads, norm) -> dict[str, float | None]:
        """Workload-specific per-layer metrics (``norm`` scales seconds)."""
        return {}

    def probed_dt_sweep(self, samples, payloads, dt_sweep_s: float) -> float:
        """Raw seconds of the driver's steady ``dt`` sweep on the probed
        tensor (default: the end-to-end metric, measured on that tensor)."""
        return dt_sweep_s

    def traced_run(self, tracer: Tracer, samples, payloads, tally: Tally,
                   norm) -> dict:
        """Drive the computation once more under ``tracer``; extra metrics."""
        return {}


class SingleTensor(Workload):
    """One tensor, the sequential drivers, called directly (workloads 1, 2)."""

    #: stop rule of the two solves: ``n_sweeps`` and ``tol``
    als_stop: dict = {}
    pp_stop: dict = {}

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.tensor, self.rank, self.start = self.make_inputs()
        self.warm = layers.als(self.tensor, rank=self.rank, n_sweeps=WARM_SWEEPS,
                               tol=0.0, engine="msdt", **self.start).factors
        self.probe_tensor(self.tensor, self.rank, self.start, self.warm)

    def make_inputs(self):
        """``(tensor, rank, start)``; ``start`` is the ``seed=`` or
        ``initial_factors=`` every run but a warm-started one begins from."""
        raise NotImplementedError

    def pp_start(self) -> dict:
        """Where the PP solve starts (default: where the ALS solve does)."""
        return self.start

    def solve_checks(self, result) -> list[str]:
        return []

    # -- operations ----------------------------------------------------------
    def operations(self) -> list[Operation]:
        return [Operation("setup", self.op_setup), Operation("als", self.op_als),
                Operation("msdt", self.op_msdt), Operation("pp", self.op_pp)]

    def op_setup(self) -> OpResult:
        tensor = layers.fresh(self.tensor)
        layers.cold_start()
        seconds, result = timed(layers.als, tensor, rank=self.rank, n_sweeps=1,
                                tol=0.0, engine="dt", **self.start)
        self.facts["contract.plan_hit_ratio"] = layers.plan_hit_ratio()
        return OpResult({"setup": seconds}, result_repeat(result))

    def op_als(self) -> OpResult:
        timings, result = clocked("als", layers.als, self.tensor, rank=self.rank,
                                  engine="dt", **self.als_stop, **self.start)
        return OpResult(timings, result_repeat(result),
                        self.solve_checks(result), payload=result)

    def op_msdt(self) -> OpResult:
        timings, result = clocked("msdt", layers.als, self.tensor, rank=self.rank,
                                  engine="msdt", n_sweeps=SHORT_RUN, tol=0.0,
                                  **self.start)
        return OpResult(timings, result_repeat(result), payload=result)

    def op_pp(self) -> OpResult:
        timings, result = clocked("pp", layers.pp, self.tensor, rank=self.rank,
                                  **self.pp_stop, **self.pp_start())
        return OpResult(timings, result_repeat(result),
                        self.solve_checks(result), payload=result)

    # -- metrics -------------------------------------------------------------
    def end_to_end(self, samples, stat, payloads) -> dict[str, float]:
        return {
            "setup_s": stat("setup"),
            "als_solve_s": whole(samples, stat, "als"),
            "pp_solve_s": whole(samples, stat, "pp"),
            "dt_sweep_s": segment_mean(stat, "als", steady_exact(payloads["als"])),
            "msdt_sweep_s": segment_mean(stat, "msdt", steady_exact(payloads["msdt"])),
            "pp_approx_sweep_s": segment_mean(stat, "pp", steady_approx(payloads["pp"])),
        }

    def checks(self, payloads, tally: Tally) -> None:
        als, pp = payloads["als"], payloads["pp"]
        tally.check("pp fitness >= als fitness - 1e-3",
                    pp.fitness >= als.fitness - 1e-3,
                    f"{pp.fitness} vs {als.fitness}")
        tally.check("pp run has steady approximated sweeps",
                    len(steady_approx(pp)) > 0, str(layers.sweep_types(pp)))

    def layer_values(self, samples, payloads, norm) -> dict:
        return solve_counts(payloads["als"], payloads["pp"])

    def traced_run(self, tracer, samples, payloads, tally, norm) -> dict:
        self.probes.check_traced_drives(tracer, tally, payloads["msdt"].factors)
        return {}


def solve_counts(als, pp) -> dict:
    """The counts that separate "fewer sweeps" from "faster sweeps"."""
    return {
        "core.als_sweeps_to_tol": als.n_sweeps,
        "core.pp_exact_sweeps": pp.count_sweeps("als"),
        "core.pp_init_count": pp.count_sweeps("pp-init"),
        "core.pp_approx_sweeps": pp.count_sweeps("pp-approx"),
        "core.fitness_als": als.fitness,
        "core.fitness_pp": pp.fitness,
    }


class Dense4Collinear(SingleTensor):
    """Order-4 dense tensor at collinearity 0.8, solved to ``tol = 1e-5``.

    The BLAS-bound TTM chain, and the regime of both paper claims at once:
    order 4 is where MSDT's 2(N-1)/N is 1.5x, and at collinearity 0.8 ALS
    needs ~100 sweeps that PP mostly replaces by approximated ones.
    ``sparse``, ``grid``, ``comm`` and ``service`` do nothing here.
    """

    name = "dense4_collinear"
    reference = "blas"
    als_stop = pp_stop = {"n_sweeps": 300, "tol": 1e-5}
    #: both solves reach 0.99980 / 0.99990 from every seed (see make_inputs)
    fitness_floor = 0.9997

    def make_inputs(self):
        size, rank = (12, 4) if self.tiny else (32, 16)
        tensor, factors = layers.dense_collinear(size, 4, rank, self.seed)
        return tensor, rank, {"initial_factors": factors}

    def solve_checks(self, result) -> list[str]:
        failures = []
        if not result.converged:
            failures.append("solve did not converge")
        if result.fitness < self.fitness_floor:
            failures.append(f"fitness {result.fitness} below {self.fitness_floor}")
        return failures


class Sparse3Skewed(SingleTensor):
    """Order-3 skewed count tensor, fixed-length runs, PP from a warm start.

    Memory-bound gather / segment-reduce / scatter through ``repro.sparse`` and
    the CSF trees, where compiled kernels, ``_scatter_add`` and CSF-build work
    must show; BLAS does nothing.  The tensor object is reused across rounds
    (one long warm run); only ``setup_s`` pays the cold CSF build.
    """

    name = "sparse3_skewed"
    reference = "mem"
    als_stop = {"n_sweeps": SHORT_RUN, "tol": 0.0}
    pp_stop = {"n_sweeps": 10, "tol": 0.0}

    def make_inputs(self):
        extent = 150 if self.tiny else 800
        return layers.sparse_skewed(extent, self.seed), 16, {"seed": self.seed + 1}

    def pp_start(self) -> dict:
        return {"initial_factors": self.warm}

    def checks(self, payloads, tally: Tally) -> None:
        super().checks(payloads, tally)
        types = layers.sweep_types(payloads["pp"])
        tally.check("warm PP run is [als, pp-init, pp-approx x 8]",
                    types == ["als", "pp-init"] + ["pp-approx"] * 8, str(types))


class SmallService(Workload):
    """Twelve tiny sparse tensors through ``DecompositionService``, one client.

    ~1 ms sweeps are interpreter-bound - tracker snapshots, sweep records,
    option resolution, provider construction, cold CSF builds, queue hops -
    while the kernels that fill workloads 1-2 are negligible.  Every job gets
    a fresh tensor object (cold CSF) and every round starts a fresh service
    (the service keeps each job it has run, so one kept across rounds would
    make ``peak_rss_mb`` count rounds), so every job computes; one identical
    resubmission per round is the read side of the artifact cache.  Closed
    loop, ``n_workers=1``.  The first four jobs also run as direct driver
    calls: the per-sweep metrics, and the baseline of ``service.overhead_s``.
    """

    name = "small_service"
    #: ``py`` would be the natural choice for interpreter-bound work, but the
    #: interpreter loop's speed differs by up to 19 % from one process to the
    #: next (memory layout), which the workload's own Python does not follow.
    #: ``blas`` follows the speed of the core without the memory traffic that
    #: this workload does not have: in two sets of runs (20 left alone, 18 beside
    #: a process that streamed memory or looped in Python by turns) the six
    #: timing metrics spread 2.4-6.2 % over ``blas``, 2.9-8.4 % raw,
    #: 3.8-10.4 % over ``py`` and 4.9-9.2 % over ``mem``.
    reference = "blas"
    rank = 8
    als_sweeps, pp_sweeps = 20, 30
    #: warm start of the probed tensor: PP starts by sweep 7 on these tensors
    warm_sweeps = 12
    #: how many of the jobs also run as direct driver calls
    n_direct = 4

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        n_jobs, extent = (3, 40) if tiny else (12, 60)
        base = 1000 * seed
        self.tensors = [layers.sparse_small(extent, self.rank, base + j)
                        for j in range(n_jobs)]
        self.seeds = [base + 500 + j for j in range(n_jobs)]
        start = {"seed": self.seeds[0]}
        warm = layers.als(self.tensors[0], rank=self.rank, tol=0.0, engine="msdt",
                          n_sweeps=self.warm_sweeps, **start).factors
        self.probe_tensor(self.tensors[0], self.rank, start, warm)
        self.failed_jobs = 0

    def operations(self) -> list[Operation]:
        return [
            Operation("setup", self.op_setup),
            Operation("svc_als", lambda: self.op_service("als", self.als_sweeps)),
            Operation("svc_pp", lambda: self.op_service("pp", self.pp_sweeps)),
            Operation("als", lambda: self.op_direct(
                "als", layers.als, engine="dt", n_sweeps=self.als_sweeps)),
            Operation("msdt", lambda: self.op_direct(
                "msdt", layers.als, engine="msdt", n_sweeps=SHORT_RUN)),
            Operation("pp", lambda: self.op_direct(
                "pp", layers.pp, n_sweeps=self.pp_sweeps)),
        ]

    def op_setup(self) -> OpResult:
        request = layers.service_request(
            layers.fresh(self.tensors[0]), "als", rank=self.rank, n_sweeps=1,
            seed=self.seeds[0])
        layers.cold_start()
        start = time.perf_counter()
        session = layers.ServiceSession()
        try:
            _, result, _ = session.call(request)
            seconds = time.perf_counter() - start
        finally:
            session.close()
        self.facts["contract.plan_hit_ratio"] = layers.plan_hit_ratio()
        return OpResult({"setup": seconds}, result_repeat(result))

    def op_service(self, algorithm: str, n_sweeps: int) -> OpResult:
        """Every tensor once through the service, then one resubmission."""
        prefix = f"svc_{algorithm}"
        timings, results, failures = {}, [], []
        session = layers.ServiceSession()
        try:
            for j, tensor in enumerate(self.tensors):
                request = layers.service_request(
                    layers.fresh(tensor), algorithm, rank=self.rank,
                    n_sweeps=n_sweeps, seed=self.seeds[j])
                job, result, seconds = session.call(request)
                timings[f"{prefix}.{j}"] = seconds
                timings[f"{prefix}.{j}.wait"] = job.started_at - job.submitted_at
                timings[f"{prefix}.{j}.compute"] = job.finished_at - job.started_at
                results.append(result)
            job, _, seconds = session.call(request)
            timings[f"{prefix}.artifact_hit"] = seconds
            if not job.from_artifact_cache:
                failures.append("resubmission missed the artifact cache")
            self.failed_jobs += session.failed_jobs()
        finally:
            session.close()
        return OpResult(timings, {"fitness": [r.fitness for r in results]},
                        failures, attempted=len(self.tensors) + 1,
                        payload=results)

    def op_direct(self, prefix: str, request, **options) -> OpResult:
        """The same jobs as direct driver calls: per-sweep times, and the
        baseline the service latency is compared with."""
        timings, results = {}, []
        for j in self.direct_jobs():
            out, result = clocked(f"{prefix}.{j}", request,
                                  layers.fresh(self.tensors[j]), rank=self.rank,
                                  tol=0.0, seed=self.seeds[j], **options)
            timings.update(out)
            results.append(result)
        return OpResult(timings, {"fitness": [r.fitness for r in results]},
                        attempted=len(results), payload=results)

    # -- metrics -------------------------------------------------------------
    def jobs(self):
        return range(len(self.tensors))

    def direct_jobs(self):
        return range(min(self.n_direct, len(self.tensors)))

    def end_to_end(self, samples, stat, payloads) -> dict[str, float]:
        def over(jobs, value):
            return statistics.fmean(value(j) for j in jobs)

        direct = self.direct_jobs()
        return {
            "setup_s": stat("setup"),
            "als_solve_s": over(self.jobs(), lambda j: stat(f"svc_als.{j}")),
            "pp_solve_s": over(self.jobs(), lambda j: stat(f"svc_pp.{j}")),
            "dt_sweep_s": over(direct, lambda j: segment_mean(
                stat, f"als.{j}", steady_exact(payloads["als"][j]))),
            "msdt_sweep_s": over(direct, lambda j: segment_mean(
                stat, f"msdt.{j}", steady_exact(payloads["msdt"][j]))),
            "pp_approx_sweep_s": statistics.fmean(
                stat(f"pp.{j}.seg.{i}") for j in direct
                for i in steady_approx(payloads["pp"][j])),
        }

    def checks(self, payloads, tally: Tally) -> None:
        for algorithm in ("als", "pp"):
            for j in self.direct_jobs():
                service = payloads[f"svc_{algorithm}"][j]
                direct = payloads[algorithm][j]
                tally.check(f"service {algorithm} job {j} equals the direct call at 1e-12",
                            same_factors(service.factors, direct.factors, 1e-12))
        # over the jobs together: at fitness 0.03 and fixed sweep budgets a
        # single job's PP run ends up to 1.2e-3 below its ALS run on 1 seed in
        # 20, the mean over twelve never more than 1.4e-4 (40 seeds)
        als, pp = (statistics.fmean(r.fitness for r in payloads[f"svc_{a}"])
                   for a in ("als", "pp"))
        tally.check("mean pp fitness >= mean als fitness - 1e-3",
                    pp >= als - 1e-3, f"{pp} vs {als}")

    def probed_dt_sweep(self, samples, payloads, dt_sweep_s: float) -> float:
        # the probes work on job 0; the metric averages over the direct jobs
        return segment_mean(samples.min, "als.0", steady_exact(payloads["als"][0]))

    def extra_probes(self, timings: dict) -> None:
        seconds = probe(self.errors, "service.request_build", layers.request_build,
                        self.tensors[0], rank=self.rank, n_sweeps=self.als_sweeps,
                        seed=self.seeds[0])
        if seconds is not None:
            timings["service.request_build"] = seconds

    def layer_values(self, samples, payloads, norm) -> dict:
        def over_service_jobs(suffix):
            return norm(statistics.fmean(
                samples.min(f"svc_{a}.{j}{suffix}")
                for a in ("als", "pp") for j in self.jobs()))

        overhead = statistics.fmean(
            samples.min(f"svc_{a}.{j}") - whole(samples, samples.min, f"{a}.{j}")
            for a in ("als", "pp") for j in self.direct_jobs())
        als, pp = payloads["svc_als"], payloads["svc_pp"]
        values = {
            "service.queue_wait_s": over_service_jobs(".wait"),
            "service.compute_s": over_service_jobs(".compute"),
            "service.overhead_s": norm(overhead),
            "service.artifact_hit_s": norm(statistics.fmean(
                samples.min(f"svc_{a}.artifact_hit") for a in ("als", "pp"))),
            "service.jobs_failed": self.failed_jobs,
            "service.request_build_s": (
                norm(samples.min("service.request_build"))
                if samples.has("service.request_build") else None),
        }
        counts = [solve_counts(a, p) for a, p in zip(als, pp)]
        values.update({key: statistics.fmean(c[key] for c in counts)
                       for key in counts[0]})
        return values

    def traced_run(self, tracer, samples, payloads, tally, norm) -> dict:
        self.probes.check_traced_drives(tracer, tally, payloads["msdt"][0].factors)
        tracer.op = "service.job"
        request = layers.service_request(
            layers.fresh(self.tensors[0]), "als", rank=self.rank,
            n_sweeps=self.als_sweeps, seed=self.seeds[0])
        session = layers.ServiceSession()
        try:
            with tracer.span("service.submit_to_result", "service"):
                session.call(request)
        finally:
            session.close()
        return {}


class ParallelP4(Workload):
    """The parallel drivers on a simulated 1x2x2 grid, from the raw tensor.

    The only workload where ``grid``, ``distributed``, ``comm`` and
    ``machine`` work: partition and scatter are inside every request.  It is
    the guard for collapsing the sequential and parallel drivers (ROADMAP).
    ``execution="process"`` is not timed end to end: P workers plus the master
    exceed the two cores.  The parallel drivers have no ``callback=``, so the
    per-sweep metrics are differences of minima of runs of two lengths.
    """

    name = "parallel_p4"
    reference = "mem"
    rank = 16
    grid = (1, 2, 2)
    pp_sweeps = 10

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.tensor = layers.sparse_skewed(150 if tiny else 600, seed)
        self.start = {"seed": seed + 1}
        self.warm = layers.als(self.tensor, rank=self.rank, n_sweeps=WARM_SWEEPS,
                               tol=0.0, engine="msdt", **self.start).factors
        self.probe_tensor(self.tensor, self.rank, self.start, self.warm)

    def operations(self) -> list[Operation]:
        def als(name, engine, n_sweeps):
            return Operation(name, lambda: self.op_als(name, engine, n_sweeps))

        def pp(name, n_sweeps):
            return Operation(name, lambda: self.op_pp(name, n_sweeps))

        return [Operation("setup", self.op_setup),
                als("als1", "dt", 1), als("als", "dt", SHORT_RUN),
                als("msdt1", "msdt", 1), als("msdt", "msdt", SHORT_RUN),
                pp("pp2", 2), pp("pp", self.pp_sweeps)]

    def parallel_als(self, tensor, engine, n_sweeps, grid=None, **kwargs):
        return layers.parallel_als(tensor, rank=self.rank, n_sweeps=n_sweeps,
                                   engine=engine, grid=grid or self.grid,
                                   **self.start, **kwargs)

    def op_setup(self) -> OpResult:
        tensor = layers.fresh(self.tensor)
        layers.cold_start()
        seconds, result = timed(self.parallel_als, tensor, "dt", 1)
        self.facts["contract.plan_hit_ratio"] = layers.plan_hit_ratio()
        return OpResult({"setup": seconds}, result_repeat(result))

    def op_als(self, name: str, engine: str, n_sweeps: int) -> OpResult:
        seconds, result = timed(self.parallel_als, self.tensor, engine, n_sweeps)
        return OpResult({name: seconds}, result_repeat(result), payload=result)

    def op_pp(self, name: str, n_sweeps: int) -> OpResult:
        seconds, result = timed(layers.parallel_pp, self.tensor, rank=self.rank,
                                n_sweeps=n_sweeps, grid=self.grid,
                                initial_factors=self.warm)
        expected = ["als", "pp-init"] + ["pp-approx"] * (n_sweeps - 2)
        types = layers.sweep_types(result)
        failures = [] if types == expected else [
            f"{name}: sweep types {types}, expected {expected}"]
        return OpResult({name: seconds}, result_repeat(result), failures,
                        payload=result)

    # -- metrics -------------------------------------------------------------
    def end_to_end(self, samples, stat, payloads) -> dict[str, float]:
        steady = SHORT_RUN - 1
        return {
            "setup_s": stat("setup"),
            "als_solve_s": stat("als"),
            "pp_solve_s": stat("pp"),
            "dt_sweep_s": (stat("als") - stat("als1")) / steady,
            "msdt_sweep_s": (stat("msdt") - stat("msdt1")) / steady,
            "pp_approx_sweep_s": (stat("pp") - stat("pp2")) / (self.pp_sweeps - 2),
        }

    @functools.cached_property
    def sequential_als(self):
        """The sequential driver's answer to the ``als`` operation."""
        return layers.als(self.tensor, rank=self.rank, n_sweeps=SHORT_RUN, tol=0.0,
                          engine="dt", **self.start)

    def checks(self, payloads, tally: Tally) -> None:
        als = self.sequential_als
        pp = layers.pp(self.tensor, rank=self.rank, n_sweeps=self.pp_sweeps,
                       tol=0.0, initial_factors=self.warm)
        tally.check("parallel als factors equal sequential at 1e-8",
                    same_factors(payloads["als"].factors, als.factors, 1e-8))
        tally.check("parallel pp factors equal sequential at 1e-8",
                    same_factors(payloads["pp"].factors, pp.factors, 1e-8))
        tally.check("pp fitness >= als fitness - 1e-3",
                    payloads["pp"].fitness >= payloads["als"].fitness - 1e-3)

    def extra_probes(self, timings: dict) -> None:
        out = probe(self.errors, "grid", layers.partition_and_scatter,
                    NullTracer(), self.tensor, self.grid)
        if out:
            timings["grid.partition"] = out["grid.partition"]
            timings["distributed.scatter"] = out["distributed.scatter"]
            self.facts["grid.imbalance_pct"] = out["imbalance_pct"]
            self.facts["distributed.max_rank_nnz"] = out["max_rank_nnz"]
        # one simulated rank against the sequential driver, same tensor
        for n_sweeps in (1, SHORT_RUN):
            timings[f"sim.{n_sweeps}"] = timed(
                self.parallel_als, self.tensor, "dt", n_sweeps, grid=(1, 1, 1))[0]
            timings[f"seq.{n_sweeps}"] = timed(
                layers.als, self.tensor, rank=self.rank, n_sweeps=n_sweeps,
                tol=0.0, engine="dt", **self.start)[0]

    def layer_values(self, samples, payloads, norm) -> dict:
        steady = SHORT_RUN - 1
        short, long = payloads["als1"], payloads["als"]
        modeled = statistics.fmean(long.per_sweep_modeled_seconds[STEADY_FROM:])
        measured = (samples.min("als") - samples.min("als1")) / steady
        values = {
            "machine.modeled_sweep_s": modeled,
            "machine.measured_over_modeled": norm(measured) / modeled,
            "comm.words_per_sweep": (long.critical_path.horizontal_words
                                     - short.critical_path.horizontal_words) / steady,
            "comm.messages_per_sweep": (long.critical_path.messages
                                        - short.critical_path.messages) / steady,
            "grid.partition_s": None, "distributed.scatter_s": None,
            "comm.sim_overhead_s": None,
        }
        if samples.has("grid.partition"):
            values["grid.partition_s"] = norm(samples.min("grid.partition"))
            values["distributed.scatter_s"] = norm(samples.min("distributed.scatter"))
        if samples.has("sim.1"):
            values["comm.sim_overhead_s"] = norm(
                self.per_sweep(samples, "sim") - self.per_sweep(samples, "seq"))
        values.update(solve_counts(long, payloads["pp"]))
        return values

    @staticmethod
    def per_sweep(samples, prefix: str) -> float:
        return (samples.min(f"{prefix}.{SHORT_RUN}")
                - samples.min(f"{prefix}.1")) / (SHORT_RUN - 1)

    def traced_run(self, tracer, samples, payloads, tally, norm) -> dict:
        self.probes.check_traced_drives(tracer, tally, self.sequential_als.factors)
        tracer.op = "parallel.request"
        probe(self.errors, "grid", layers.partition_and_scatter, tracer,
              self.tensor, self.grid)
        with tracer.span("core.parallel_cp_als", "core"):
            self.parallel_als(self.tensor, "dt", SHORT_RUN)
        # one worker process plus the master: as many as there are cores
        tracer.op = "process"
        times = {}
        for n_sweeps in (1, SHORT_RUN):
            with tracer.span(f"comm.process_run_{n_sweeps}", "comm"):
                out = probe(self.errors, "comm.process", timed, self.parallel_als,
                            self.tensor, "dt", n_sweeps, grid=(1, 1, 1),
                            execution="process")
            if out is None:
                return {}
            times[n_sweeps] = out[0]
        process_sweep = (times[SHORT_RUN] - times[1]) / (SHORT_RUN - 1)
        return {
            "comm.process_startup_s": norm(times[1] - samples.min("sim.1")),
            "comm.process_hop_s": norm(
                process_sweep - self.per_sweep(samples, "sim")),
        }


WORKLOADS = {cls.name: cls for cls in
             (Dense4Collinear, Sparse3Skewed, SmallService, ParallelP4)}
