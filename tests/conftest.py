"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

from repro.tensor.cp_format import random_cp_tensor


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_tensor3(rng) -> np.ndarray:
    """A small random order-3 tensor with distinct mode sizes."""
    return rng.random((7, 6, 5))


@pytest.fixture
def small_tensor4(rng) -> np.ndarray:
    """A small random order-4 tensor with distinct mode sizes."""
    return rng.random((5, 4, 6, 3))


@pytest.fixture
def lowrank_tensor3() -> np.ndarray:
    """An exactly rank-4 order-3 tensor."""
    return random_cp_tensor((11, 12, 13), rank=4, seed=7).full()


@pytest.fixture
def lowrank_tensor4() -> np.ndarray:
    """An exactly rank-3 order-4 tensor."""
    return random_cp_tensor((7, 6, 8, 5), rank=3, seed=11).full()


@pytest.fixture
def factors3(rng, small_tensor3) -> list[np.ndarray]:
    rank = 4
    return [rng.random((s, rank)) for s in small_tensor3.shape]


@pytest.fixture
def factors4(rng, small_tensor4) -> list[np.ndarray]:
    rank = 3
    return [rng.random((s, rank)) for s in small_tensor4.shape]


def reference_mttkrp(tensor: np.ndarray, factors, mode: int) -> np.ndarray:
    """Brute-force MTTKRP via full reconstruction of the Khatri-Rao product."""
    letters = "abcdefgh"
    order = tensor.ndim
    subs = letters[:order]
    operands = [tensor]
    spec = [subs]
    for j in range(order):
        if j == mode:
            continue
        operands.append(np.asarray(factors[j]))
        spec.append(subs[j] + "z")
    full_spec = ",".join(spec) + "->" + subs[mode] + "z"
    return np.einsum(full_spec, *operands)


@pytest.fixture
def mttkrp_oracle():
    return reference_mttkrp


def exported_parameters(package: str) -> dict[tuple[str, str], set[str]]:
    """Parameter names of every callable that ``package`` or one of its
    modules exports in ``__all__`` (functions, classes and their public
    methods), keyed by ``(module name, qualified name)``."""
    root = importlib.import_module(package)
    modules = [root] + [importlib.import_module(f"{package}.{info.name}")
                        for info in pkgutil.iter_modules(root.__path__)]
    found = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", member)
                            for attr, member in inspect.getmembers(obj, callable)
                            if not attr.startswith("_")]
            for qualname, member in members:
                try:
                    parameters = inspect.signature(member).parameters
                except (TypeError, ValueError):  # builtins without a signature
                    continue
                found[module.__name__, qualname] = set(parameters)
    return found


@pytest.fixture
def public_parameters():
    return exported_parameters
