"""The one module of the harness that calls into ``repro``.

Three kinds of call live here, and nowhere else in the harness:

* **inputs** - the generators that turn ``--seed`` into tensors;
* **requests** - the end-to-end operations.  They use only names in
  ``repro.__all__`` with ``options=`` bundles and the canonical engine names
  ``dt`` / ``msdt``: no legacy keyword, no alias the ROADMAP plans to delete.
  If one of these breaks, the run fails;
* **layer calls** - public functions of single modules, timed from outside
  for the per-layer metrics and driven into whole sweeps for the traced run.
  They are imported inside the function that uses them, so a function that
  has moved costs one ``null`` metric and one ``layer_probe_errors`` line
  (see :func:`probe`), never the run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import (
    ALSOptions,
    CooTensor,
    CostTracker,
    CsfTensor,
    DecompositionRequest,
    DecompositionService,
    JobState,
    ParallelOptions,
    ParallelPPOptions,
    PPOptions,
    ProcessorGrid,
    cp_als,
    default_engine,
    make_update_rule,
    parallel_cp_als,
    parallel_pp_cp_als,
    pp_cp_als,
    sparse_mttkrp,
)

#: the paper's PP tolerance for its synthetic study
PP_TOL = 0.2


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def dense_collinear(size: int, order: int, rank: int, seed: int):
    """Collinearity-0.8 tensor plus initial factors, as ``(tensor, factors)``.

    The initial factors are the true factors times a *frozen* ``R x R`` mixing
    matrix per mode.  ALS is invariant under the per-mode orthogonal change of
    basis that distinguishes two seeds' tensors, so every seed walks an
    equivalent trajectory: the data differ, the sweep counts do not.  With a
    free random start the sweeps to ``tol`` vary by +-10 % from seed to seed,
    and ``als_solve_s`` with them, which no bound could tell from a regression.
    """
    from repro.data import collinearity_tensor

    generated = collinearity_tensor((size,) * order, rank, (0.8, 0.8), seed=seed)
    mixing = np.random.default_rng(2).random((order, rank, rank))
    factors = [f @ m for f, m in zip(generated.factors, mixing)]
    return generated.tensor, factors


def sparse_skewed(extent: int, seed: int) -> CooTensor:
    """Order-3 Poisson counts with power-law slices (alpha = 1.1)."""
    from repro.data.sparse_synthetic import sparse_skewed_count_tensor

    return sparse_skewed_count_tensor((extent,) * 3, 2.5e-4, alpha=1.1, seed=seed)


def sparse_small(extent: int, rank: int, seed: int) -> CooTensor:
    """A 1 %-dense sampled low-rank tensor (the ``BENCH_service.json`` shape)."""
    from repro.data import sparse_low_rank_tensor

    return sparse_low_rank_tensor((extent,) * 3, rank=rank, density=0.01, seed=seed)


def is_sparse(tensor) -> bool:
    return isinstance(tensor, CooTensor)


def fresh(tensor):
    """A new tensor object with no cached CSF layouts (or a new dense array)."""
    return tensor.copy()


def shuffled_coordinates(tensor: CooTensor, seed: int):
    """The tensor's nonzeros in random order: what a client would hand over."""
    perm = np.random.default_rng(seed).permutation(tensor.nnz)
    return tensor.indices[perm], tensor.values[perm]


# --------------------------------------------------------------------------
# requests (end to end)
# --------------------------------------------------------------------------

def cold_start() -> None:
    """Drop every cached contraction plan, as in a process that just started."""
    repro.contract.reset_default_engine()


def als(tensor, *, rank, n_sweeps, tol, engine, seed=None,
        initial_factors=None, callback=None):
    options = ALSOptions(rank=rank, n_sweeps=n_sweeps, tol=tol, mttkrp=engine,
                         seed=seed)
    return cp_als(tensor, options=options, initial_factors=initial_factors,
                  callback=callback)


def pp(tensor, *, rank, n_sweeps, tol, seed=None, initial_factors=None,
       callback=None):
    options = PPOptions(rank=rank, n_sweeps=n_sweeps, tol=tol, mttkrp="msdt",
                        pp_tol=PP_TOL, seed=seed)
    return pp_cp_als(tensor, options=options, initial_factors=initial_factors,
                     callback=callback)


def parallel_als(tensor, *, rank, n_sweeps, engine, grid, seed,
                 execution="simulated"):
    options = ParallelOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0,
                              mttkrp=engine, seed=seed, grid=grid,
                              partitioner="nnz-balanced", execution=execution)
    return parallel_cp_als(tensor, options=options)


def parallel_pp(tensor, *, rank, n_sweeps, grid, initial_factors):
    options = ParallelPPOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0,
                                mttkrp="msdt", pp_tol=PP_TOL, grid=grid,
                                partitioner="nnz-balanced",
                                execution="simulated")
    return parallel_pp_cp_als(tensor, options=options,
                              initial_factors=initial_factors)


def sweep_types(result) -> list[str]:
    return [record.sweep_type for record in result.sweeps]


def service_request(tensor, algorithm: str, *, rank, n_sweeps, seed):
    """The request a client builds; ``algorithm`` is ``"als"`` or ``"pp"``."""
    if algorithm == "als":
        options = ALSOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0, mttkrp="dt")
    else:
        options = PPOptions(rank=rank, n_sweeps=n_sweeps, tol=0.0,
                            mttkrp="msdt", pp_tol=PP_TOL)
    return DecompositionRequest(tensor, algorithm=algorithm, options=options,
                                seed=seed)


class ServiceSession:
    """A running ``DecompositionService(n_workers=1)`` and its one client.

    Closed loop: :meth:`call` submits one request and waits for its result
    before the caller can send the next.
    """

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self.service = DecompositionService(n_workers=1)
        self._loop.run_until_complete(self.service.start())

    def call(self, request):
        """``submit()`` -> ``result()``; returns ``(job, result, seconds)``."""
        async def roundtrip():
            start = time.perf_counter()
            job = await self.service.submit(request)
            result = await self.service.result(job.id)
            return job, result, time.perf_counter() - start

        return self._loop.run_until_complete(roundtrip())

    def failed_jobs(self) -> int:
        return self.service.stats()["jobs"].get(JobState.FAILED.value, 0)

    def close(self) -> None:
        self._loop.run_until_complete(self.service.close())
        self._loop.close()


# --------------------------------------------------------------------------
# layer calls (per-layer probes and the traced drive)
# --------------------------------------------------------------------------

class ProbeErrors:
    """Collects the probes that could not run, one line each, once."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, name: str, exc: BaseException) -> None:
        line = f"{name}: {type(exc).__name__}: {exc}"
        if line not in self.lines:
            self.lines.append(line)


def probe(errors: ProbeErrors, name: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, or ``None`` plus an error line if it raises.

    This is the boundary that keeps a moved or renamed layer function from
    failing the run, so it catches everything a call into ``repro`` can raise.
    """
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - isolation boundary, reported
        errors.add(name, exc)
        return None


def timed(call, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return time.perf_counter() - start, result


def kernel_backend_name(tensor, rank: int) -> str:
    """The sparse kernel backend a default ``dt`` provider resolves to."""
    from repro.trees.registry import make_provider

    factors = [np.ones((s, rank)) for s in tensor.shape]
    kernel = getattr(make_provider("dt", tensor, factors), "kernel", None)
    return "numpy" if kernel is None else kernel.name


def contract_plan_search(tensor, rank: int) -> dict:
    """Cold and warm ``plan()`` of the root contraction.

    ``plan()`` and not ``contract()``: the search takes ~0.1 ms, which the
    difference of two 5-ms contractions cannot resolve.
    """
    from repro.contract import plan, reset_default_engine

    if isinstance(tensor, CooTensor):
        spec = "b,br->br"
        operands = (tensor.values, np.ones((tensor.nnz, rank)))
    else:
        letters = "abcdefgh"[:tensor.ndim]
        spec = f"{letters},{letters[-1]}R->{letters[:-1]}R"
        operands = (tensor, np.ones((tensor.shape[-1], rank)))
    reset_default_engine()
    cold, _ = timed(plan, spec, *operands)
    warm, _ = timed(plan, spec, *operands)
    return {"contract.cold_plan": cold, "contract.warm_plan": warm}


def plan_hit_ratio() -> float:
    info = default_engine().cache_info()
    return info["hits"] / max(info["hits"] + info["misses"], 1)


def tensor_kernels(tensor, rank: int) -> dict:
    """``tensor_norm`` everywhere; the first-level TTM on dense tensors."""
    from repro.tensor.norms import tensor_norm
    from repro.tensor.ttm import first_contraction

    out = {"tensor.norm": timed(tensor_norm, tensor)[0]}
    if not isinstance(tensor, CooTensor):
        factor = np.ones((tensor.shape[-1], rank))
        out["tensor.first_contraction"] = timed(
            first_contraction, tensor, factor, tensor.ndim - 1)[0]
    return out


def dt_csf_orders(tensor: CooTensor, rank: int) -> list[tuple[int, ...]]:
    """The CSF mode orderings a ``dt`` sweep requests, found from outside.

    After one ``dt`` sweep on a fresh tensor object, asking for a layout the
    sweep built is a cache hit and any other ordering is a miss.
    """
    from repro.sparse import csf_cache_stats

    probe_tensor = fresh(tensor)
    als(probe_tensor, rank=rank, n_sweeps=1, tol=0.0, engine="dt", seed=0)
    orders = []
    for root in range(tensor.ndim):
        order = tuple(m for m in range(tensor.ndim) if m != root) + (root,)
        hits = csf_cache_stats()["hits"]
        CsfTensor.from_coo(probe_tensor, order)
        if csf_cache_stats()["hits"] > hits:
            orders.append(order)
    return orders


def sparse_kernels(tensor: CooTensor, coordinates, orders, factors) -> dict:
    """COO canonicalisation, cold CSF builds, and the COO MTTKRP."""
    indices, values = coordinates
    out = {"sparse.coo_build": timed(CooTensor, indices, values, tensor.shape)[0]}
    out["sparse.csf_build"] = sum(
        timed(CsfTensor, tensor, order)[0] for order in orders)
    out["sparse.coo_mttkrp"] = float(np.mean([
        timed(sparse_mttkrp, tensor, factors, mode)[0]
        for mode in range(tensor.ndim)]))
    return out


def csf_megabytes(tensor: CooTensor, orders) -> float:
    return sum(CsfTensor(tensor, order).nbytes for order in orders) / 1e6


def reset_csf_cache_counts() -> None:
    from repro.sparse import reset_csf_cache_stats

    reset_csf_cache_stats()


def csf_cache_hit_ratio() -> float | None:
    """Share of CSF layout requests since the reset that found one built."""
    from repro.sparse import csf_cache_stats

    stats = csf_cache_stats()
    requests = stats["hits"] + stats["misses"]
    return stats["hits"] / requests if requests else None


@dataclass
class Drive:
    """Outcome of sweeps the harness drove itself."""

    factors: list
    #: provider flops of each sweep (CostTracker, exact)
    sweep_flops: list = field(default_factory=list)
    tree_cache_hit_ratio: float = 0.0
    pp_operator_mb: float = 0.0


def _exact_sweep(tracer, provider, grams, norm_t) -> None:
    """One exact ALS sweep, residual included, out of public layer calls."""
    from repro.core.normal_equations import (
        gamma_chain, gram_matrix, solve_normal_equations)
    from repro.tensor.norms import residual_from_mttkrp

    order = provider.order
    for mode in range(order):
        with tracer.span("core.gram", "core"):
            gamma = gamma_chain(grams, mode)
        with tracer.span("trees.mttkrp", "trees"):
            mttkrp = provider.mttkrp(mode)
        with tracer.span("core.solve", "core"):
            updated = solve_normal_equations(gamma, mttkrp)
        with tracer.span("trees.set_factor", "trees"):
            provider.set_factor(mode, updated)
        with tracer.span("core.gram", "core"):
            grams[mode] = gram_matrix(updated)
    with tracer.span("tensor.residual", "tensor"):
        residual_from_mttkrp(norm_t, mttkrp, provider.factors[-1], grams,
                             last_mode=order - 1)


def _start_drive(tracer, tensor, rank, engine, seed, initial_factors, min_order):
    from repro.core.initialization import prepare_als_inputs
    from repro.core.normal_equations import gram_matrix
    from repro.trees.registry import make_provider

    with tracer.span("core.prepare", "core"):
        tensor, factors, norm_t = prepare_als_inputs(
            tensor, rank, min_order=min_order,
            initial_factors=initial_factors, seed=seed)
    tracker = CostTracker()
    with tracer.span("trees.provider_build", "trees"):
        provider = make_provider(engine, tensor, factors, tracker=tracker)
    with tracer.span("core.gram", "core"):
        grams = [gram_matrix(f) for f in provider.factors]
    return tensor, provider, grams, norm_t, tracker


def _tree_hit_ratio(provider) -> float:
    stats = provider.cache_stats()
    return stats["hits"] / max(stats["hits"] + stats["misses"], 1)


def drive_als(tracer, tensor, *, rank, engine, n_sweeps, seed=None,
              initial_factors=None) -> Drive:
    """``n_sweeps`` exact sweeps driven from outside, one span per layer call.

    Mirrors what ``cp_als`` does between request and factors, so the factors
    must equal the driver's; the caller asserts that.
    """
    tensor, provider, grams, norm_t, tracker = _start_drive(
        tracer, tensor, rank, engine, seed, initial_factors, min_order=2)
    flops = []
    for _ in range(n_sweeps):
        before = tracker.total_flops
        with tracer.span("sweep"):
            _exact_sweep(tracer, provider, grams, norm_t)
        flops.append(tracker.total_flops - before)
    return Drive(factors=[f.copy() for f in provider.factors],
                 sweep_flops=flops,
                 tree_cache_hit_ratio=_tree_hit_ratio(provider))


def drive_pp(tracer, tensor, *, rank, initial_factors) -> Drive:
    """One exact sweep, the PP initialisation, one approximated sweep.

    The sweep-type sequence ``[als, pp-init, pp-approx]`` of ``pp_cp_als``
    from a warm start, driven from outside.
    """
    from repro.core.normal_equations import gamma_chain, gram_matrix
    from repro.core.pp_corrections import delta_gram, fused_approx_update
    from repro.tensor.norms import residual_from_mttkrp
    from repro.trees.pp_operators import PairwiseOperators

    tensor, provider, grams, norm_t, tracker = _start_drive(
        tracer, tensor, rank, "msdt", None, initial_factors, min_order=3)
    order = provider.order
    with tracer.span("sweep"):
        _exact_sweep(tracer, provider, grams, norm_t)

    checkpoint = [f.copy() for f in provider.factors]
    with tracer.span("trees.pp_build", "trees"):
        operators = PairwiseOperators.build(tensor, checkpoint, tracker=tracker,
                                            provider=provider)
    delta_factors = [np.zeros_like(f) for f in provider.factors]
    rule = make_update_rule("least_squares")
    kernel = getattr(provider, "kernel", None)
    with tracer.span("pp_sweep"):
        with tracer.span("core.gram", "core"):
            delta_grams = [delta_gram(provider.factors[i], delta_factors[i])
                           for i in range(order)]
        for mode in range(order):
            with tracer.span("core.gram", "core"):
                gamma = gamma_chain(grams, mode)
            with tracer.span("core.pp_correction", "core"):
                updated, approx = fused_approx_update(
                    operators, mode, provider.factors[mode], delta_factors,
                    grams, delta_grams, gamma, rule, kernel=kernel)
            with tracer.span("trees.set_factor", "trees"):
                provider.set_factor(mode, updated)
            delta_factors[mode] = updated - checkpoint[mode]
            with tracer.span("core.gram", "core"):
                delta_grams[mode] = delta_gram(updated, delta_factors[mode])
                grams[mode] = gram_matrix(updated)
        with tracer.span("tensor.residual", "tensor"):
            residual_from_mttkrp(norm_t, approx, provider.factors[-1], grams,
                                 last_mode=order - 1)
    return Drive(factors=[f.copy() for f in provider.factors],
                 pp_operator_mb=operators.memory_words() * 8 / 1e6)


def partition_and_scatter(tracer, tensor: CooTensor, grid) -> dict:
    """``make_partition`` then ``DistSparseTensor.from_coo`` with that partition."""
    from repro.distributed.sparse import DistSparseTensor
    from repro.grid import make_partition

    pgrid = ProcessorGrid(grid)
    with tracer.span("grid.partition", "grid"):
        partition_s, partition = timed(make_partition, "nnz-balanced", tensor, pgrid)
    with tracer.span("distributed.scatter", "distributed"):
        scatter_s, dist = timed(DistSparseTensor.from_coo, tensor, pgrid,
                                partitioner=partition)
    return {
        "grid.partition": partition_s,
        "distributed.scatter": scatter_s,
        "imbalance_pct": 100.0 * partition.report(tensor).imbalance,
        "max_rank_nnz": int(dist.local_nnz().max()),
    }


def request_build(tensor, *, rank, n_sweeps, seed) -> float:
    """Seconds to build a request and its content-hash artifact key."""
    from repro.service import artifact_key

    start = time.perf_counter()
    artifact_key(service_request(tensor, "als", rank=rank, n_sweeps=n_sweeps,
                                 seed=seed))
    return time.perf_counter() - start
