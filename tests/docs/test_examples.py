"""Every example script runs to completion.

Each script under ``examples/`` runs in a fresh interpreter with ``src`` on
the path, as a user would run it.  ``mpi_smoke.py`` is left out: it needs an
MPI launcher and ``mpi4py`` (CI's MPI job runs it).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted(p for p in (ROOT / "examples").glob("*.py") if p.name != "mpi_smoke.py")


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
