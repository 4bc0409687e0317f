"""Unit tests for the options bundles, the drivers' one way to be configured."""

import dataclasses
import inspect

import pytest

from repro.core.cp_als import cp_als
from repro.core.multi_start import multi_start
from repro.core.options import (
    ALSOptions,
    ParallelOptions,
    ParallelPPOptions,
    MaskedOptions,
    NNOptions,
    PPOptions,
)
from repro.core.masked_cp_als import masked_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.parallel_common import setup_parallel_state
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.core.updates import make_update_rule
from repro.core.pp_cp_als import pp_cp_als
from repro.grid.processor_grid import ProcessorGrid
from repro.tensor.cp_format import random_cp_tensor
from repro.trees.registry import available_providers, make_provider


@pytest.fixture(scope="module")
def tensor():
    return random_cp_tensor((8, 9, 10), rank=3, seed=0).full()


class TestBundles:
    def test_defaults_match_driver_defaults(self):
        """The audit fix: each bundle's defaults equal its driver's defaults."""
        als = ALSOptions(rank=3)
        assert (als.n_sweeps, als.tol, als.mttkrp) == (50, 1.0e-5, "dt")
        pp = PPOptions(rank=3)
        assert (pp.n_sweeps, pp.pp_tol, pp.mttkrp) == (300, 0.1, "msdt")
        assert pp.max_pp_sweeps_per_phase == 200
        par = ParallelOptions(rank=3, grid=(2, 2, 2))
        assert (par.n_sweeps, par.distributed_solve) == (25, True)
        assert par.partitioner == "nnz-balanced"
        ppp = ParallelPPOptions(rank=3, grid=(2, 2, 2))
        assert (ppp.n_sweeps, ppp.pp_tol, ppp.mttkrp) == (300, 0.1, "msdt")

    def test_validation(self):
        with pytest.raises(ValueError):
            ALSOptions(rank=0)
        with pytest.raises(ValueError):
            ALSOptions(rank=3, n_sweeps=0)
        with pytest.raises(ValueError):
            ALSOptions(rank=3, tol=-1.0)
        with pytest.raises(ValueError):
            PPOptions(rank=3, pp_tol=1.5)
        with pytest.raises(ValueError):
            ParallelOptions(rank=3, grid=(0, 2))
        # a NaN tol would make |r_prev - r| < tol never true: no stop rule
        for cls in (ALSOptions, PPOptions, NNOptions, MaskedOptions,
                    ParallelOptions, ParallelPPOptions):
            for tol in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="tol must be finite"):
                    cls(rank=2, tol=tol)

    @pytest.mark.parametrize("cls", [ALSOptions, PPOptions, ParallelOptions])
    def test_unknown_engine_rejected_at_construction(self, cls):
        with pytest.raises(ValueError, match="unknown MTTKRP engine 'bogus'"):
            cls(rank=2, mttkrp="bogus")

    def test_unknown_partitioner_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown partitioner 'bogus'"):
            ParallelOptions(rank=2, grid=(1, 1, 1), partitioner="bogus")

    def test_grid_normalized_to_tuple(self):
        assert ParallelOptions(rank=3, grid=[2, 3]).grid == (2, 3)
        assert ParallelOptions(rank=3, grid=ProcessorGrid((1, 2))).grid == (1, 2)

    def test_cache_key_distinguishes_types_and_values(self):
        a = ALSOptions(rank=3)
        assert a.cache_key() == ALSOptions(rank=3).cache_key()
        assert a.cache_key() != ALSOptions(rank=4).cache_key()
        # PPOptions with matching shared fields still keys differently
        assert a.cache_key() != PPOptions(rank=3, n_sweeps=50, mttkrp="dt").cache_key()


class TestDriverWiring:
    def test_cp_als_options_param(self, tensor):
        result = cp_als(tensor, options=ALSOptions(rank=3, n_sweeps=4, seed=0))
        assert result.n_sweeps <= 4
        assert result.options["rank"] == 3

    def test_cp_als_requires_rank(self, tensor):
        with pytest.raises(TypeError):
            cp_als(tensor, ALSOptions())

    def test_pp_cp_als_options_param(self, tensor):
        result = pp_cp_als(tensor, options=PPOptions(rank=3, n_sweeps=5, seed=1))
        assert result.options["pp_tol"] == 0.1

    def test_multi_start_infers_algorithm(self, tensor):
        result = multi_start(tensor, n_starts=2,
                             options=PPOptions(rank=3, n_sweeps=4, seed=0))
        assert result.algorithm == "pp"
        result = multi_start(tensor, n_starts=2,
                             options=ALSOptions(rank=3, n_sweeps=4, seed=0))
        assert result.algorithm == "als"

    def test_multi_start_rejects_parallel_bundle(self, tensor):
        with pytest.raises(TypeError):
            multi_start(tensor, options=ParallelOptions(rank=3, grid=(2, 2, 2)))

    def test_parallel_drivers_accept_bundles(self, tensor):
        opts = ParallelOptions(rank=3, grid=(1, 1, 2), n_sweeps=3, seed=0)
        result = parallel_cp_als(tensor, options=opts)
        assert result.options["grid"] == (1, 1, 2)
        ppo = ParallelPPOptions(rank=3, grid=(1, 1, 2), n_sweeps=3, seed=0)
        result = parallel_pp_cp_als(tensor, options=ppo)
        assert result.grid_dims == (1, 1, 2)

    def test_parallel_grid_order_must_match_tensor(self, tensor):
        with pytest.raises(ValueError, match="does not match grid order"):
            parallel_cp_als(tensor, ParallelOptions(rank=3))

    def test_parallel_grid_instance_accepted(self, tensor):
        grid = ProcessorGrid((1, 2, 1))
        result = parallel_cp_als(
            tensor, ParallelOptions(rank=3, grid=grid, n_sweeps=2, seed=0)
        )
        assert result.grid_dims == (1, 2, 1)

    def test_wrong_bundle_type_rejected(self, tensor):
        with pytest.raises(TypeError, match="PPOptions"):
            pp_cp_als(tensor, ALSOptions(rank=3))
        with pytest.raises(TypeError, match="ALSOptions"):
            cp_als(tensor, 3)


#: the entry points, each with the bundle class its settings live on
ENTRY_POINTS = [
    (cp_als, ALSOptions),
    (pp_cp_als, PPOptions),
    (nn_cp_als, NNOptions),
    (masked_cp_als, MaskedOptions),
    (parallel_cp_als, ParallelOptions),
    (parallel_pp_cp_als, ParallelPPOptions),
    (multi_start, PPOptions),
    (setup_parallel_state, ParallelPPOptions),
]


class TestOneSpelling:
    """Each setting of a run has one name, on one object."""

    @pytest.mark.parametrize("entry, cls", ENTRY_POINTS,
                             ids=[e.__name__ for e, _ in ENTRY_POINTS])
    def test_no_parameter_duplicates_a_bundle_field(self, entry, cls):
        params = list(inspect.signature(entry).parameters)
        assert params[1] == "options"
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not fields & set(params), sorted(fields & set(params))
        assert "algorithm" not in params

    @pytest.mark.parametrize("alias", ["dimension_tree", "multi_sweep", "coo", "sparse",
                                       "sparse-dt", "sparse-msdt", "sparse-unfolding"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_deleted_engine_aliases_rejected(self, tensor, alias, sparse):
        from repro.sparse import CooTensor

        data = CooTensor.from_dense(tensor) if sparse else tensor
        factors = random_cp_tensor(tensor.shape, rank=2, seed=1).factors
        with pytest.raises(ValueError) as raised:
            make_provider(alias, data, factors)
        assert str(available_providers()) in str(raised.value)

    @pytest.mark.parametrize("field, alias", [
        ("execution", "sim"), ("execution", "procs"), ("execution", "multiprocess"),
        ("update", "mu"),
    ])
    def test_deleted_setting_aliases_rejected(self, field, alias):
        with pytest.raises(ValueError, match=f"{alias!r}"):
            ParallelOptions(rank=2, **{field: alias})
        if field == "update":
            with pytest.raises(ValueError, match="'mu'"):
                NNOptions(rank=2, update=alias)
            with pytest.raises(ValueError, match="'mu'"):
                make_update_rule(alias)


class TestResultBase:
    def test_multi_start_result_shares_accessor_surface(self, tensor):
        result = multi_start(tensor, ALSOptions(rank=3, seed=0, n_sweeps=3), n_starts=2)
        assert result.factors is result.best.factors
        assert result.residual == result.best.residual
        assert result.converged == result.best.converged
        assert result.n_sweeps == result.best.n_sweeps
        assert result.sweeps is result.best.sweeps
        assert result.cp.rank == 3
        assert result.count_sweeps("als") == result.best.count_sweeps("als")
        assert result.fitness_history() == result.best.fitness_history()

    def test_options_replace_preserves_type(self):
        opts = PPOptions(rank=3)
        replaced = dataclasses.replace(opts, seed=5)
        assert isinstance(replaced, PPOptions)
        assert replaced.seed == 5
