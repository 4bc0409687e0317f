"""Doctest checks over the documentation examples (ISSUE 4 doc/CI satellite).

Two layers keep the examples honest without requiring Sphinx at test time:

* every ``>>>`` block in the docstrings of the audited ``repro.grid`` /
  ``repro.distributed`` / ``repro.machine.collective_costs`` modules runs
  via :mod:`doctest` with the module's own globals, and so do those of the
  package docstring and of the nonnegative and masked drivers,
* the quickstart page's ``>>>`` blocks run via :func:`doctest.testfile`
  (the CI ``docs`` job additionally runs ``sphinx -b doctest`` over the whole
  site with the same semantics).
"""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import repro
import repro.core.masked_cp_als
import repro.core.nn_cp_als
import repro.distributed.dist_factor
import repro.distributed.dist_tensor
import repro.distributed.sparse
import repro.grid.balance
import repro.grid.distribution
import repro.grid.processor_grid
import repro.machine.calibrate
import repro.machine.collective_costs
import repro.trees.sparse_pp

DOCS_DIR = Path(__file__).resolve().parents[2] / "docs"

AUDITED_MODULES = [
    repro.grid.processor_grid,
    repro.grid.distribution,
    repro.grid.balance,
    repro.distributed.dist_tensor,
    repro.distributed.dist_factor,
    repro.distributed.sparse,
    repro.machine.calibrate,
    repro.machine.collective_costs,
    repro.trees.sparse_pp,
    repro,
    repro.core.nn_cp_als,
    repro.core.masked_cp_als,
]


@pytest.mark.parametrize("module", AUDITED_MODULES, ids=lambda m: m.__name__)
def test_docstring_examples_run(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
    assert results.failed == 0


def test_every_public_name_has_a_docstring():
    """The audit itself: public classes/functions in repro.grid and
    repro.distributed must carry docstrings (with their examples checked
    above)."""
    import inspect

    for module in AUDITED_MODULES:
        public = getattr(module, "__all__", None) or [
            n for n in vars(module) if not n.startswith("_")
        ]
        for name in public:
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue  # re-export, documented at its definition site
            assert inspect.getdoc(obj), f"{module.__name__}.{name} lacks a docstring"
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_") or not inspect.isfunction(attr):
                        continue
                    assert inspect.getdoc(attr), (
                        f"{module.__name__}.{name}.{attr_name} lacks a docstring"
                    )


@pytest.mark.parametrize(
    "page",
    ["quickstart.rst", "algorithms.rst", "engines.rst", "service.rst",
     "execution.rst"],
)
def test_docs_page_examples_run(page):
    path = DOCS_DIR / page
    assert path.exists()
    results = doctest.testfile(str(path), module_relative=False, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_docs_pages_are_in_the_toctrees():
    """Every docs page must be reachable from index.rst (Sphinx -W would
    reject orphans; this keeps the check runnable without Sphinx)."""
    index = (DOCS_DIR / "index.rst").read_text()
    for page in DOCS_DIR.rglob("*.rst"):
        if page.name == "index.rst":
            continue
        ref = str(page.relative_to(DOCS_DIR).with_suffix(""))
        assert ref in index, f"docs page {ref} missing from index.rst toctree"
