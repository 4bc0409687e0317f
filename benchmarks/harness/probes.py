"""Per-layer probes: public calls of single modules, timed from outside.

One :class:`LayerProbes` belongs to a workload and probes one of its tensors.
In a ``--trace 1`` run it contributes one more operation to every round (so
its timings are minima over rounds against the same reference kernel as the
end-to-end ones), derives the per-layer metrics from them, and after the
rounds drives the traced run.  Every call goes through :func:`layers.probe`:
a layer function that has moved costs a ``null`` and an error line.
"""

from __future__ import annotations

import statistics

import layers
from layers import probe, timed
from metrics import KERNEL_BACKEND_CODES
from protocol import Operation, OpResult, Tally
from tracing import HARNESS_LAYER, NullTracer, Tracer

__all__ = ["LayerProbes", "SHORT_RUN", "STEADY_FROM", "same_factors"]

#: sweeps of the fixed-length runs the per-sweep metrics come from
SHORT_RUN = 7
#: 0-based sweep index from which a sweep counts as steady state
STEADY_FROM = 1
#: the layer calls of one exact sweep, as the drive names its spans
SWEEP_CALLS = ("trees.mttkrp", "trees.set_factor", "core.solve", "core.gram",
               "tensor.residual")


def same_factors(a, b, tol: float) -> bool:
    """Every factor pair equal to ``tol``, relative to the largest entry."""
    return all(
        abs(x - y).max() <= tol * max(1.0, float(abs(y).max()))
        for x, y in zip(a, b))


def drive_timings(tracer: Tracer, prefix: str) -> dict[str, float]:
    """Seconds of each layer call in each steady sweep of a traced ALS drive.

    One sample per call and sweep position, like the driver's callback
    segments, so that both are minima over rounds of the same kind of thing.
    """
    out = {}
    for i, sweep in enumerate(tracer.find("sweep")):
        if i >= STEADY_FROM:
            for call in SWEEP_CALLS:
                out[f"{prefix}.{call}.{i}"] = tracer.total(sweep, call)
    return out


class LayerProbes:
    """The probes of one tensor.

    ``start`` is the ``seed=`` or ``initial_factors=`` of the workload's
    fixed-length runs, ``warm`` the factors PP starts from at once;
    ``errors`` and ``facts`` are the workload's; ``extra(timings)`` adds the
    workload's own probes to a round.
    """

    def __init__(self, tensor, rank, start, warm, seed, errors, facts,
                 extra=lambda timings: None) -> None:
        self.tensor, self.rank, self.start, self.warm = tensor, rank, start, warm
        self.seed, self.errors, self.facts, self.extra = seed, errors, facts, extra
        self.sparse = layers.is_sparse(tensor)

    def kernel_backend(self) -> str | None:
        """Name of the sparse kernel backend in use (``None``: dense tensor)."""
        if not self.sparse:
            return None
        return probe(self.errors, "sparse.kernel_backend",
                     layers.kernel_backend_name, self.tensor, self.rank)

    def prepare(self) -> None:
        """One-off, untimed facts about the tensor."""
        if self.sparse:
            self.coordinates = layers.shuffled_coordinates(self.tensor, self.seed)
            self.csf_orders = probe(self.errors, "sparse.csf_orders",
                                    layers.dt_csf_orders, self.tensor, self.rank) or []
            self.facts["sparse.csf_mb"] = probe(
                self.errors, "sparse.csf_mb", layers.csf_megabytes, self.tensor,
                self.csf_orders)
            self.facts["sparse.kernel_backend"] = KERNEL_BACKEND_CODES.get(
                self.kernel_backend())

    def operation(self) -> Operation:
        return Operation("probes", self.run)

    # -- one round -----------------------------------------------------------
    def drive_als(self, tracer, engine: str):
        return layers.drive_als(tracer, self.tensor, rank=self.rank,
                                engine=engine, n_sweeps=SHORT_RUN, **self.start)

    def drive_pp(self, tracer):
        return layers.drive_pp(tracer, self.tensor, rank=self.rank,
                               initial_factors=self.warm)

    def run(self) -> OpResult:
        timings: dict[str, float] = {}
        exact: dict = {}

        def merge(name, call, *args, **kwargs):
            timings.update(probe(self.errors, name, call, *args, **kwargs) or {})

        merge("tensor", layers.tensor_kernels, self.tensor, self.rank)
        if self.sparse:
            merge("sparse", layers.sparse_kernels, self.tensor, self.coordinates,
                  self.csf_orders, self.warm)
        for engine in ("dt", "msdt"):
            tracer = Tracer()
            out = probe(self.errors, f"drive.{engine}", timed, self.drive_als,
                        tracer, engine)
            if out:
                timings[f"drive.{engine}"], drive = out
                timings.update(drive_timings(tracer, engine))
                timings.update({
                    f"{engine}.{span.name}": span.seconds for span in tracer.spans
                    if span.name in ("core.prepare", "trees.provider_build")})
                exact[f"{engine}.flops"] = statistics.fmean(
                    drive.sweep_flops[STEADY_FROM:])
                exact[f"{engine}.tree_hits"] = drive.tree_cache_hit_ratio
        out = probe(self.errors, "drive.dt.untraced", timed, self.drive_als,
                    NullTracer(), "dt")
        if out:
            timings["drive.dt.untraced"] = out[0]
        tracer = Tracer()
        drive = probe(self.errors, "drive.pp", self.drive_pp, tracer)
        if drive:
            timings["pp.build"] = tracer.find("trees.pp_build")[0].seconds
            timings["pp.correction"] = tracer.total(
                tracer.find("pp_sweep")[0], "core.pp_correction")
            exact["pp.operator_mb"] = drive.pp_operator_mb
        self.extra(timings)
        # last, because it leaves the plan cache cold for whatever runs next
        merge("contract", layers.contract_plan_search, self.tensor, self.rank)
        return OpResult(timings=timings, repeat=exact, payload=exact)

    # -- metrics -------------------------------------------------------------
    def values(self, samples, payloads, norm, dt_sweep_s) -> dict[str, float | None]:
        """The per-layer metrics every workload derives from its probes.

        ``dt_sweep_s`` is the driver's steady sweep on this tensor, in raw
        seconds; what is left of it after the layer calls of one sweep is the
        driver's own time.
        """
        def seconds(name):
            return norm(samples.min(name)) if samples.has(name) else None

        def per_sweep(name):
            """Mean over the steady sweep positions of the minimum there."""
            if not samples.has(f"{name}.{STEADY_FROM}"):
                return None
            return norm(statistics.fmean(
                samples.min(f"{name}.{i}") for i in range(STEADY_FROM, SHORT_RUN)))

        exact = payloads["probes"]
        cold, warm = seconds("contract.cold_plan"), seconds("contract.warm_plan")
        traced, untraced = seconds("drive.dt"), seconds("drive.dt.untraced")
        calls = [per_sweep(f"dt.{call}") for call in SWEEP_CALLS]
        return {
            "contract.plan_search_s": None if cold is None else cold - warm,
            "tensor.first_contraction_s": seconds("tensor.first_contraction"),
            "tensor.residual_s": per_sweep("dt.tensor.residual"),
            "tensor.norm_s": seconds("tensor.norm"),
            "sparse.coo_build_s": seconds("sparse.coo_build"),
            "sparse.csf_build_s": seconds("sparse.csf_build"),
            "sparse.coo_mttkrp_s": seconds("sparse.coo_mttkrp"),
            "trees.provider_build_s": seconds("dt.trees.provider_build"),
            "trees.dt_mttkrp_s": per_sweep("dt.trees.mttkrp"),
            "trees.msdt_mttkrp_s": per_sweep("msdt.trees.mttkrp"),
            "trees.dt_flops": exact.get("dt.flops"),
            "trees.msdt_flops": exact.get("msdt.flops"),
            "trees.pp_build_s": seconds("pp.build"),
            "trees.pp_operator_mb": exact.get("pp.operator_mb"),
            "trees.cache_hit_ratio": exact.get("msdt.tree_hits"),
            "core.prepare_s": seconds("dt.core.prepare"),
            "core.solve_s": per_sweep("dt.core.solve"),
            "core.gram_s": per_sweep("dt.core.gram"),
            "core.pp_correction_s": seconds("pp.correction"),
            "core.driver_self_s": (None if None in calls
                                   else norm(dt_sweep_s) - sum(calls)),
            "trace.overhead_pct": (None if None in (traced, untraced)
                                   else 100.0 * (traced - untraced) / untraced),
        }

    # -- the traced run ------------------------------------------------------
    def check_traced_drives(self, tracer: Tracer, tally: Tally,
                            short_run_factors) -> None:
        """Drive dt, msdt and PP under ``tracer``: same factors as the driver
        (``short_run_factors``: a driver's ``SHORT_RUN`` sweeps from the same
        start), and the time of every sweep accounted for by layer spans."""
        glue = []
        for engine in ("dt", "msdt"):
            tracer.op = f"drive.{engine}"
            first = len(tracer.spans)
            drive = probe(self.errors, tracer.op, self.drive_als, tracer, engine)
            if drive is None:
                continue
            tally.check(f"traced {engine} factors match the driver's at 1e-10",
                        same_factors(drive.factors, short_run_factors, 1e-10))
            sweeps = [s for s in tracer.spans[first:] if s.name == "sweep"]
            for sweep in sweeps[STEADY_FROM:]:
                own = tracer.self_seconds(sweep).get(HARNESS_LAYER, 0.0)
                glue.append(100.0 * own / sweep.seconds)
        if glue:
            self.facts["trace.glue_pct"] = statistics.median(glue)
            tally.check("layer self-times cover 90 % of the traced sweep",
                        self.facts["trace.glue_pct"] <= 10.0,
                        f"glue {self.facts['trace.glue_pct']:.1f} %")
        tracer.op = "drive.pp"
        drive = probe(self.errors, tracer.op, self.drive_pp, tracer)
        if drive is not None:
            driver = layers.pp(self.tensor, rank=self.rank, n_sweeps=3, tol=0.0,
                               initial_factors=self.warm)
            types = layers.sweep_types(driver)
            if tally.check("warm PP run is [als, pp-init, pp-approx]",
                           types == ["als", "pp-init", "pp-approx"], str(types)):
                tally.check("traced pp factors match the driver's at 1e-10",
                            same_factors(drive.factors, driver.factors, 1e-10))
