"""Every ``repro`` name the benchmark harness imports still resolves.

``benchmarks/harness/layers.py`` is the harness's one module that calls into
``repro``: at module level for the end-to-end requests, and inside the layer
functions for the per-layer probes.  A name that moves breaks a benchmark run
(or turns a metric ``null``) long after the tests pass, so this reads the file
with :mod:`ast`, without importing or changing it, and resolves every
``repro`` import it holds.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "harness" / "layers.py"


def _tree() -> ast.Module:
    return ast.parse(_LAYERS.read_text(), filename=str(_LAYERS))


def _is_repro(module: str | None) -> bool:
    return module is not None and (module == "repro" or module.startswith("repro."))


def _import_nodes() -> list[ast.Import | ast.ImportFrom]:
    return [node for node in ast.walk(_tree())
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                and _is_repro(node.module))
            or (isinstance(node, ast.Import)
                and any(_is_repro(alias.name) for alias in node.names))]


def _repro_imports() -> list[tuple[str, str]]:
    """``(module, name)`` of every ``repro`` import in the file; ``name`` is
    ``""`` for a plain ``import repro.x``."""
    found = set()
    for node in _import_nodes():
        if isinstance(node, ast.ImportFrom):
            found.update((node.module, alias.name) for alias in node.names)
        else:
            found.update((alias.name, "") for alias in node.names if _is_repro(alias.name))
    return sorted(found)


def _repro_attributes() -> list[str]:
    """Every ``repro.<name>`` the file reads."""
    return sorted({node.attr for node in ast.walk(_tree())
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "repro"})


def test_the_file_imports_at_module_level_and_inside_functions():
    # both kinds of import are read: the walk must see them
    nodes = _import_nodes()
    module_level = [node for node in nodes if node.col_offset == 0]
    assert module_level and len(module_level) < len(nodes)


@pytest.mark.parametrize("module, name", _repro_imports(),
                         ids=lambda value: value or "module")
def test_imported_name_resolves(module, name):
    imported = importlib.import_module(module)
    if name and not hasattr(imported, name):
        # ``from package import submodule`` resolves through the import system
        importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("name", _repro_attributes())
def test_repro_attribute_resolves(name):
    import repro

    assert hasattr(repro, name), f"layers.py reads repro.{name}"
