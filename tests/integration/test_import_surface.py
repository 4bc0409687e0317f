"""The import surface: what ``import repro`` and a process-machine worker load.

``repro`` resolves its public names on first use (PEP 562), so importing it
costs nothing beyond the version string, and a spawned
:class:`~repro.comm.procs.ProcessMachine` worker — which imports only
:mod:`repro.comm.procs` plus the rank-local kernels — loads none of the driver
stack and none of the master's set-up (partitioners, distributed layouts,
runtimes), since ``repro.grid`` and ``repro.distributed`` resolve their names
lazily too.  Each check that depends on what is already imported runs in a fresh
interpreter.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = Path(__file__).resolve().parents[2] / "src"

#: what a spawned worker imports (``repro.comm.procs._WorkerState``)
WORKER_SET = ("repro.comm.procs", "repro.distributed.rank", "repro.trees.registry",
              "repro.sparse")

#: modules of the driver stack a worker must not load
DRIVER_STACK = ("repro.core", "repro.service", "scipy.linalg", "asyncio")

#: modules of the master's set-up a worker must not load (the ``repro.grid``
#: and ``repro.distributed`` packages resolve their names lazily)
MASTER_SETUP = ("repro.grid.balance", "repro.grid.processor_grid",
                "repro.distributed.sparse", "repro.distributed.dist_tensor",
                "repro.distributed.dist_factor", "repro.distributed.runtime")

#: the names ``benchmarks/harness/layers.py`` imports from ``repro`` outside
#: ``__all__``
HARNESS_NAMES = ("CostTracker", "CsfTensor", "ProcessorGrid", "default_engine",
                 "make_update_rule", "sparse_mttkrp")


def _loaded_after(statement: str) -> list[str]:
    """Names in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(_SRC), *filter(None, [env.get("PYTHONPATH")])])
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _under(modules: list[str], roots: tuple[str, ...]) -> list[str]:
    return [m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)]


@pytest.fixture(scope="module")
def worker_loaded() -> list[str]:
    """``sys.modules`` of a fresh interpreter that imported the worker set."""
    return _loaded_after("\n".join(f"import {m}" for m in WORKER_SET))


def test_worker_imports_no_driver_stack(worker_loaded):
    assert set(WORKER_SET) <= set(worker_loaded)
    assert _under(worker_loaded, DRIVER_STACK) == []


@pytest.mark.parametrize("module", MASTER_SETUP)
def test_worker_loads_no_master_setup_module(worker_loaded, module):
    assert _under(worker_loaded, (module,)) == []


#: the lazy subpackages and the names each resolves on first use
LAZY_PACKAGES = ("repro.grid", "repro.distributed")
LAZY_NAMES = [(package, name) for package in LAZY_PACKAGES
              for name in importlib.import_module(package).__all__]


@pytest.mark.parametrize("package, name", LAZY_NAMES,
                         ids=[f"{p}.{n}" for p, n in LAZY_NAMES])
def test_every_lazy_subpackage_name_resolves(package, name):
    """The name is its defining module's own object, cached on the package."""
    module = importlib.import_module(package)
    value = getattr(module, name)
    assert getattr(sys.modules[value.__module__], name) is value
    assert vars(module)[name] is value


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_subpackage_names_resolve(package):
    """A lazy subpackage lists its names, refuses unknown ones, and importing
    it loads none of its submodules."""
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
    loaded = _loaded_after(f"import {package}")
    assert _under(loaded, (package,)) == [package]


def test_import_repro_loads_only_the_version():
    loaded = _loaded_after("import repro")
    assert _under(loaded, ("repro",)) == ["repro", "repro._version"]


def test_public_surface_is_small():
    assert len(repro.__all__) <= 30
    assert len(set(repro.__all__)) == len(repro.__all__)


@pytest.mark.parametrize("name", [*repro.__all__, *HARNESS_NAMES])
def test_every_public_and_harness_name_resolves(name):
    value = getattr(repro, name)
    assert value is not None
    if name != "__version__":
        # the name is the defining module's own object, not a copy
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_covers_all():
    assert set(repro.__all__) <= set(dir(repro))


def test_harness_names_stay_outside_all():
    assert not set(HARNESS_NAMES) & set(repro.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro, "SimulatedMachine")
