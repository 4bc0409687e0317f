"""Tests of the one entry point: the options bundle's class picks the driver."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import decompose
from repro.core.cp_als import cp_als
from repro.core.decompose import algorithm_name
from repro.core.masked_cp_als import masked_cp_als
from repro.core.nn_cp_als import nn_cp_als
from repro.core.options import (
    ALSOptions,
    MaskedOptions,
    NNOptions,
    ParallelOptions,
    ParallelPPOptions,
    PPOptions,
)
from repro.core.parallel_cp_als import parallel_cp_als
from repro.core.parallel_pp_cp_als import parallel_pp_cp_als
from repro.core.pp_cp_als import pp_cp_als
from repro.sparse.coo import CooTensor
from repro.tensor.cp_format import random_cp_tensor

SHAPE = (9, 8, 7)
GRID = (1, 2, 1)

#: (bundle, the driver it must reach, its name)
CASES = [
    (ALSOptions(rank=3, n_sweeps=6, tol=0.0, seed=1), cp_als, "als"),
    (PPOptions(rank=3, n_sweeps=12, tol=0.0, pp_tol=0.5, seed=1), pp_cp_als, "pp"),
    (NNOptions(rank=3, n_sweeps=6, tol=0.0, seed=1), nn_cp_als, "nncp"),
    (MaskedOptions(rank=3, n_sweeps=6, tol=0.0, seed=1), masked_cp_als, "masked"),
    (ParallelOptions(rank=3, n_sweeps=6, tol=0.0, grid=GRID, seed=1),
     parallel_cp_als, "parallel_als"),
    (ParallelPPOptions(rank=3, n_sweeps=12, tol=0.0, pp_tol=0.5, grid=GRID, seed=1),
     parallel_pp_cp_als, "parallel_pp"),
]
IDS = [name for _, _, name in CASES]


@pytest.fixture(scope="module")
def tensors():
    dense = np.abs(random_cp_tensor(SHAPE, rank=3, seed=4).full())
    observed = np.random.default_rng(5).random(SHAPE) < 0.6
    return {"dense": dense, "sparse": CooTensor.from_dense(np.where(observed, dense, 0.0))}


def _data(options, tensor) -> dict:
    if isinstance(options, MaskedOptions) and isinstance(tensor, np.ndarray):
        return {"mask": np.random.default_rng(6).random(SHAPE) < 0.5}
    return {}


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("options, driver, name", CASES, ids=IDS)
def test_decompose_is_the_direct_driver_call(tensors, backend, options, driver, name):
    tensor = tensors[backend]
    data = _data(options, tensor)
    via = decompose(tensor, options, **data)
    direct = driver(tensor, options, **data)
    assert type(via) is type(direct)
    for a, b in zip(via.factors, direct.factors):
        assert np.array_equal(a, b)
    assert [s.sweep_type for s in via.sweeps] == [s.sweep_type for s in direct.sweeps]
    assert [s.flops for s in via.sweeps] == [s.flops for s in direct.sweeps]
    assert via.options == direct.options
    assert algorithm_name(options) == name


def test_pp_cases_run_pp_phases(tensors):
    # the PP rows above compare something only if the PP loop actually ran
    for options, _, _ in CASES:
        if isinstance(options, (PPOptions, ParallelPPOptions)):
            types = {s.sweep_type for s in decompose(tensors["dense"], options).sweeps}
            assert {"pp-init", "pp-approx"} <= types


def test_subclass_bundle_runs_the_most_derived_table_class(tensors):
    @dataclasses.dataclass
    class TunedNNOptions(NNOptions):
        pass

    @dataclasses.dataclass
    class TunedParallelPPOptions(ParallelPPOptions):
        pass

    assert algorithm_name(TunedNNOptions(rank=2)) == "nncp"
    assert algorithm_name(TunedParallelPPOptions(rank=2, grid=GRID)) == "parallel_pp"
    signed = tensors["dense"] - tensors["dense"].mean()
    result = decompose(signed, TunedNNOptions(rank=2, n_sweeps=4, seed=0))
    assert result.options["update"] == "hals"
    assert all((f >= 0).all() for f in result.factors)


@pytest.mark.parametrize("foreign", [object(), {"rank": 2}, 3, None])
def test_foreign_options_raise_type_error(tensors, foreign):
    with pytest.raises(TypeError, match="options bundle"):
        decompose(tensors["dense"], foreign)
    with pytest.raises(TypeError, match="options bundle"):
        algorithm_name(foreign)


@pytest.mark.parametrize("options", [CASES[4][0], CASES[5][0]], ids=IDS[4:])
def test_parallel_callback_sees_every_sweep_but_pp_init(tensors, options):
    seen = []

    def callback(index, factors, fitness):
        assert [f.shape for f in factors] == [(s, options.rank) for s in SHAPE]
        seen.append((index, fitness))

    result = decompose(tensors["dense"], options, callback=callback)
    assert seen == [(s.index, s.fitness) for s in result.sweeps
                    if s.sweep_type != "pp-init"]
    assert len(seen) > 0


def test_parallel_callback_aborts_the_run(tensors):
    class Stop(Exception):
        pass

    def callback(index, factors, fitness):
        if index == 2:
            raise Stop

    with pytest.raises(Stop):
        decompose(tensors["dense"], CASES[4][0], callback=callback)
