"""Micro-benchmarks of the MTTKRP engines (supplementary, not a paper artifact).

These time one full sweep of MTTKRPs for each engine on a single process so
the relative kernel costs (naive vs DT vs MSDT, and the PP approximated
update) can be inspected directly with pytest-benchmark's own statistics.
The last rows time the hot loops against what they replaced: the sparse trees'
segmented-sum operator against ``np.add.reduceat``, the two dense tree
kernels (batched GEMM / matrix-vector products on views) against
``np.einsum(..., optimize=True)``, per mode and per axis, the dense tree's
fused trailing half (one Khatri-Rao GEMM) against the first-level TTM and
mTTVs it replaces, on the shapes of its table in ``docs/engines.rst``, and the pieces of a
PP approximated sweep (Eq. 5's first-order assembly, the normal-equations
solve, the Gram matrix) against the per-pair einsum — on semi-sparse
operators against the gather-scale-scatter it was —, SciPy's
``cho_factor``/``cho_solve`` wrappers and the einsum they were, and the
sparse set-up (COO canonicalisation, a CSF layout, a fiber step) against the
``np.lexsort`` spelling it had before ``repro.sparse.ordering.lex_order``
(information only, nothing is gated but the equality of the results).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from conftest import BENCH_TINY

from repro.contract import default_engine
from repro.core.normal_equations import gram_matrix, solve_normal_equations
from repro.data.sparse_synthetic import sparse_skewed_count_tensor
from repro.sparse import CooTensor, CsfTensor
from repro.sparse.csf import SegmentSum, run_starts
from repro.tensor.ttm import first_contraction, trailing_contraction
from repro.tensor.ttv import contract_intermediate_mode
from repro.trees.pp_operators import PairwiseOperators
from repro.trees.registry import make_provider

_SHAPE = (8, 8, 8) if BENCH_TINY else (40, 40, 40)
_RANK = 4 if BENCH_TINY else 16
#: the harness's dense workload (``dense4_collinear``): 32^4, R = 16
_TREE_SHAPE = (6, 5, 4, 3) if BENCH_TINY else (32, 32, 32, 32)


def _sweep(provider):
    for mode in range(provider.order):
        result = provider.mttkrp(mode)
        provider.set_factor(mode, result / (np.linalg.norm(result) + 1.0))
    return result


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    tensor = rng.random(_SHAPE)
    factors = [rng.random((s, _RANK)) for s in _SHAPE]
    return tensor, factors


@pytest.mark.parametrize("engine", ["naive", "dt", "msdt"])
def test_engine_sweep_time(benchmark, workload, engine):
    tensor, factors = workload
    provider = make_provider(engine, tensor, [f.copy() for f in factors])
    _sweep(provider)  # warm up the cache / steady state
    benchmark(_sweep, provider)


def _first_order_oracle(operators, mode, deltas):
    """Eq. (5) up to first order, one ``np.einsum`` per pair."""
    out = operators.single(mode).copy()
    for (i, j), op in operators.pairs().items():
        if i == mode:
            out += np.einsum("xyk,yk->xk", op, deltas[j])
        elif j == mode:
            out += np.einsum("xyk,xk->yk", op, deltas[i])
    return out


def _gather_scale_scatter_plan(operators):
    """Per ``(pair, out_axis)``: the fiber block as the C-contiguous
    ``(n_fibers, R)`` array it was held as, the gather columns and the cached
    placement operator — the semi-sparse first-order correction's structure
    before the block-diagonal product."""
    plan = {}
    for pair, op in operators.pairs().items():
        block = np.ascontiguousarray(op.block)
        for out_axis in (0, 1):
            plan[pair, out_axis] = (block, op.fibers[:, 1 - out_axis],
                                    SegmentSum.scatter(op.fibers[:, out_axis],
                                                       op.dims[out_axis],
                                                       dtype=block.dtype))
    return plan


def _gather_scale_scatter(operators, plan, mode, deltas, engine):
    """Eq. (5) up to first order on semi-sparse operators as it was computed:
    per pair, the factor rows of the fibers gathered into an ``n_fibers x R``
    array, scaled in place by the block through the einsum engine, and
    scatter-added into the output rows."""
    out = operators.single(mode).copy()
    for other in range(operators.order):
        if other != mode:
            pair, out_axis = ((mode, other), 0) if mode < other else ((other, mode), 1)
            block, gather, scatter = plan[pair, out_axis]
            rows = deltas[other][gather]
            engine.contract("fr,fr->fr", block, rows, out=rows)
            out += scatter @ rows
    return out


@pytest.fixture(scope="module")
def warm_sparse_operators(sparse_workload):
    """PP operators of the harness's ``sparse3_skewed`` tensor (or the tiny
    one), built from a provider that has run one sweep."""
    rng = np.random.default_rng(0)
    provider = make_provider("msdt", sparse_workload,
                             [rng.random((s, _RANK)) for s in sparse_workload.shape])
    _sweep(provider)
    operators = PairwiseOperators.build(sparse_workload, provider.factors,
                                        provider=provider)
    return operators, [1e-3 * f for f in provider.factors]


_APPROX_CASES = [
    pytest.param(shape, kind, id=f"{kind}-{shape}")
    for shape, kinds in (("order3", ("first-order-mttkrp", "per-pair-einsum-oracle")),
                         ("harness", ("first-order-mttkrp", "per-pair-einsum-oracle")),
                         ("sparse3", ("first-order-mttkrp", "gather-scale-scatter")))
    for kind in kinds
]


@pytest.mark.parametrize("shape,kind", _APPROX_CASES)
def test_pp_approximated_sweep_time(benchmark, request, kind, shape):
    """The first-order assembly of one approximated sweep (all modes), at the
    engine-sweep shape above, at the harness's dense workload, and on the
    semi-sparse operators of its ``sparse3_skewed`` tensor — there against
    the gather-scale-scatter correction the block-diagonal product replaced,
    which it must equal bit for bit."""
    if shape == "sparse3":
        operators, deltas = request.getfixturevalue("warm_sparse_operators")
    else:
        tensor, factors = request.getfixturevalue(
            "workload" if shape == "order3" else "tree_workload")
        operators = PairwiseOperators.build(tensor, factors)
        deltas = [1e-3 * f for f in factors]
    order = operators.order
    workspaces = [np.empty_like(operators.single(mode)) for mode in range(order)]
    plan = _gather_scale_scatter_plan(operators) if shape == "sparse3" else None
    engine = default_engine()

    def _approx_sweep():
        if kind == "first-order-mttkrp":
            return [operators.first_order_mttkrp(mode, deltas, out=workspaces[mode])
                    for mode in range(order)]
        if kind == "gather-scale-scatter":
            return [_gather_scale_scatter(operators, plan, mode, deltas, engine)
                    for mode in range(order)]
        return [_first_order_oracle(operators, mode, deltas) for mode in range(order)]

    result = benchmark(_approx_sweep)
    for mode in range(order):
        if plan is not None:
            assert np.array_equal(
                result[mode], _gather_scale_scatter(operators, plan, mode, deltas, engine))
        else:
            assert np.allclose(result[mode], _first_order_oracle(operators, mode, deltas),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_rows", [64, 100_000], ids=["tiny", "1e5-rows"])
@pytest.mark.parametrize("kind", ["segment-sum", "reduceat-oracle"])
def test_segment_sum_time(benchmark, kind, n_rows):
    """Fiber-run sums (runs of ~3 rows) of an ``n_rows x R`` block."""
    rng = np.random.default_rng(0)
    block = rng.random((n_rows, _RANK))
    starts = np.flatnonzero(rng.random(n_rows) < 1 / 3)
    starts[0] = 0
    expected = np.add.reduceat(block, starts, axis=0)
    if kind == "segment-sum":
        operator = SegmentSum(starts, n_rows)  # built once, as the providers do
        result = benchmark(operator.__matmul__, block)
    else:
        result = benchmark(np.add.reduceat, block, starts, 0)
    assert np.allclose(result, expected, rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module")
def tree_workload():
    rng = np.random.default_rng(0)
    tensor = rng.random(_TREE_SHAPE)
    factors = [rng.random((s, _RANK)) for s in _TREE_SHAPE]
    return tensor, factors


def _ttm_oracle(tensor, factor, mode):
    subs = "abcd"[:tensor.ndim]
    kept = subs.replace(subs[mode], "")
    return np.einsum(f"{subs},{subs[mode]}R->{kept}R", tensor, factor, optimize=True)


def _mttv_oracle(intermediate, factor, axis):
    subs = "abcd"[:intermediate.ndim - 1]
    kept = subs.replace(subs[axis], "")
    return np.einsum(f"{subs}R,{subs[axis]}R->{kept}R", intermediate, factor, optimize=True)


@pytest.mark.parametrize("mode", range(4))
@pytest.mark.parametrize("kind", ["gemm-on-views", "einsum-oracle"])
def test_first_contraction_time(benchmark, tree_workload, kind, mode):
    """First-level TTM of every mode (DT contracts the last and the first,
    MSDT's root rotates through all of them)."""
    tensor, factors = tree_workload
    kernel = first_contraction if kind == "gemm-on-views" else _ttm_oracle
    result = benchmark(kernel, tensor, factors[mode], mode)
    assert np.allclose(result, _ttm_oracle(tensor, factors[mode], mode),
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("kind", ["matvec-on-views", "einsum-oracle"])
def test_contract_intermediate_mode_time(benchmark, tree_workload, kind, axis):
    """Second-level mTTV of every axis, on the intermediate the TTM leaves."""
    tensor, factors = tree_workload
    intermediate = first_contraction(tensor, factors[0], 0)
    kernel = contract_intermediate_mode if kind == "matvec-on-views" else _mttv_oracle
    result = benchmark(kernel, intermediate, factors[axis + 1], axis)
    assert np.allclose(result, _mttv_oracle(intermediate, factors[axis + 1], axis),
                       rtol=1e-12, atol=1e-12)


#: ``(shape, R)`` of the fused trailing half's table in ``docs/engines.rst``
#: ("Dense hot loops"): the harness's 32^4 R16 first, then the shapes it was
#: measured on; on the last two the chain is faster
_TRAILING_CASES = ([((6, 5, 4, 3), 4), ((3, 4, 2, 3, 2), 3)] if BENCH_TINY else [
    ((32, 32, 32, 32), 16), ((10, 20, 30, 200), 16), ((7, 11, 13, 17), 5),
    ((20, 20, 20, 20, 20), 8), ((200, 30, 20, 10), 16), ((48, 48, 48, 48), 32),
    ((24, 24, 24, 24), 8), ((16, 16, 64, 64), 32), ((10, 10, 100, 100), 16)])


def _trailing_chain(tensor, factors):
    """First-level TTM of the last mode, then one mTTV per further trailing mode."""
    order, k = tensor.ndim, len(factors)
    array = first_contraction(tensor, factors[-1], order - 1)
    for j in range(k - 2, -1, -1):
        array = contract_intermediate_mode(array, factors[j], order - k + j)
    return array


@pytest.mark.parametrize("case", _TRAILING_CASES,
                         ids=lambda c: "x".join(map(str, c[0])) + f"-R{c[1]}")
@pytest.mark.parametrize("kind", ["krp-gemm", "ttm-mttv-chain"])
def test_trailing_contraction_time(benchmark, kind, case):
    """The dense tree's trailing half: ``M^(0..m-1)`` from the raw tensor."""
    shape, rank = case
    rng = np.random.default_rng(0)
    tensor = rng.random(shape)
    order = len(shape)
    factors = [rng.random((s, rank)) for s in shape[(order + 1) // 2:]]
    kernel = trailing_contraction if kind == "krp-gemm" else _trailing_chain
    result = benchmark(kernel, tensor, factors)
    assert np.allclose(result, _trailing_chain(tensor, factors), rtol=1e-12, atol=1e-12)


def _cholesky_oracle(gamma, rhs):
    chol = scipy.linalg.cho_factor(gamma, lower=True, check_finite=False)
    return scipy.linalg.cho_solve(chol, rhs.T, check_finite=False).T


@pytest.mark.parametrize("kind", ["potrf-potrs", "cho-factor-solve-oracle"])
def test_solve_normal_equations_time(benchmark, tree_workload, kind):
    """One mode's solve at the harness shape (32 x 16 against a 16 x 16 Gamma)."""
    _, factors = tree_workload
    gamma = factors[1].T @ factors[1] + np.eye(_RANK)
    rhs = np.asfortranarray(factors[0])  # the trees hand the MTTKRP out rank-first
    solver = solve_normal_equations if kind == "potrf-potrs" else _cholesky_oracle
    result = benchmark(solver, gamma, rhs)
    assert np.allclose(result, _cholesky_oracle(gamma, rhs), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["matmul", "einsum-oracle"])
def test_gram_matrix_time(benchmark, tree_workload, kind):
    _, factors = tree_workload
    if kind == "matmul":
        result = benchmark(gram_matrix, factors[0])
    else:
        result = benchmark(np.einsum, "ar,as->rs", factors[0], factors[0], optimize=True)
    assert np.allclose(result, factors[0].T @ factors[0], rtol=1e-12, atol=1e-12)


# -- sparse set-up: one sort of a linearised key against np.lexsort -------------

@pytest.fixture(scope="module")
def sparse_workload():
    """The harness's ``sparse3_skewed`` tensor (9.1e4 nnz), or a tiny one."""
    if BENCH_TINY:
        return sparse_skewed_count_tensor((30, 30, 30), 0.02, alpha=1.1, seed=1)
    return sparse_skewed_count_tensor((800, 800, 800), 2.5e-4, alpha=1.1, seed=1)


def _lexsort_canonicalise(indices, values, shape):
    """``CooTensor.__init__``'s sort-and-sum as it was spelled (no validation)."""
    order = np.lexsort(indices.T[::-1])
    indices, values = indices[order], values[order]
    keep = np.empty(indices.shape[0], dtype=bool)
    keep[0] = True
    np.any(indices[1:] != indices[:-1], axis=1, out=keep[1:])
    if not keep.all():
        values = np.add.reduceat(values, np.flatnonzero(keep))
        indices = indices[keep]
    return indices, values


@pytest.mark.parametrize("entry", ["shuffled", "already-sorted", "5pct-duplicated"])
@pytest.mark.parametrize("kind", ["lex-order", "lexsort-oracle"])
def test_coo_canonicalise_time(benchmark, sparse_workload, kind, entry):
    tensor = sparse_workload
    rng = np.random.default_rng(0)
    indices, values = tensor.indices, tensor.values
    if entry == "5pct-duplicated":
        again = rng.integers(0, tensor.nnz, size=tensor.nnz // 20)
        indices = np.concatenate((indices, indices[again]))
        values = np.concatenate((values, values[again]))
    if entry != "already-sorted":
        shuffle = rng.permutation(indices.shape[0])
        indices, values = indices[shuffle], values[shuffle]
    if kind == "lex-order":
        built = benchmark(CooTensor, indices, values, tensor.shape)
        result = built.indices, built.values
    else:
        result = benchmark(_lexsort_canonicalise, indices, values, tensor.shape)
    expected = _lexsort_canonicalise(indices, values, tensor.shape)
    assert np.array_equal(result[0], expected[0])
    assert np.array_equal(result[1], expected[1])  # same sums, in the same order


def _lexsort_layout(tensor, order):
    """A CSF layout's permutation and per-level run offsets as they were built."""
    perm = np.lexsort(tuple(tensor.indices[:, m] for m in reversed(order)))
    cols = [tensor.indices[perm, m] for m in order]
    changed = np.zeros(tensor.nnz - 1, dtype=bool)
    starts = []
    for col in cols:
        np.logical_or(changed, col[1:] != col[:-1], out=changed)
        starts.append(np.concatenate(([0], np.flatnonzero(changed) + 1)))
    return perm, starts


@pytest.mark.parametrize("order", [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)],
                         ids=lambda order: "".join(map(str, order)))
@pytest.mark.parametrize("kind", ["lex-order", "lexsort-oracle"])
def test_csf_layout_time(benchmark, sparse_workload, kind, order):
    """A cold layout build for each non-identity ordering (a ``dt`` request
    on an order-3 tensor builds ``120``)."""
    tensor = sparse_workload
    perm, starts = _lexsort_layout(tensor, order)
    if kind == "lex-order":
        layout = benchmark(CsfTensor, tensor, order)
        assert np.array_equal(layout.perm, perm)
        for depth in range(3):
            assert np.array_equal(layout.value_ptr(depth)[:-1], starts[depth])
    else:
        benchmark(_lexsort_layout, tensor, order)


def _lexsort_fiber_step(fibers, pos, n_out):
    """A fiber step's regrouping and sum operator as they were built."""
    child_cols = np.delete(fibers, pos, axis=1)
    n_parents, n_child = child_cols.shape
    if pos == fibers.shape[1] - 1:
        perm, cols = None, child_cols
    else:
        perm = np.lexsort(tuple(child_cols[:, j] for j in reversed(range(n_child))))
        cols = child_cols[perm]
    starts = run_starts([cols[:, j] for j in range(n_child)], n_parents)
    if n_child == 1:
        reduce = SegmentSum.scatter(child_cols[:, 0], n_out)
    else:
        reduce = SegmentSum(starts, n_parents, columns=perm, n_columns=n_parents)
    return cols[starts], reduce


@pytest.mark.parametrize("leaves", ["one-mode", "two-modes"])
@pytest.mark.parametrize("kind", ["lex-order", "lexsort-oracle"])
def test_fiber_step_build_time(benchmark, sparse_workload, kind, leaves):
    """Contracting the leading mode out of the fibers over two modes (every
    order-3 sweep does it twice: nothing is sorted any more) and over three."""
    tensor = sparse_workload
    modes = (0, 1) if leaves == "one-mode" else (0, 1, 2)
    fibers = np.unique(tensor.indices[:, modes], axis=0)
    if kind == "lex-order":
        rng = np.random.default_rng(0)

        def build():
            provider = make_provider(
                "dt", tensor, [rng.random((s, 2)) for s in tensor.shape])
            return provider._fiber_step(modes, 0, fibers)

        step = benchmark(build)
        result = step.child_fibers, step.reduce
    else:
        result = benchmark(_lexsort_fiber_step, fibers, 0, tensor.shape[1])
    expected = _lexsort_fiber_step(fibers, 0, tensor.shape[1])
    assert np.array_equal(result[0], expected[0])
    block = np.random.default_rng(1).random((fibers.shape[0], 3))
    assert np.array_equal(result[1] @ block, expected[1] @ block)
