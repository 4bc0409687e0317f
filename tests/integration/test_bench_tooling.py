"""The baseline-comparison tool on reports whose ``info`` holds nulls.

``bench_sparse_baseline.py`` writes ``null`` for the compiled-kernel timings
when no compiled kernel ran; ``compare_bench.py`` must print those side by
side like any other ``info`` value and gate on ``tracked`` alone.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_COMPARE = Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py"


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", _COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(ratio, flops=100):
    return {"name": "sparse_baseline", "config": {"rank": 8},
            "tracked": {"flops_dt": flops},
            "info": {"kernel_backend": "numpy",
                     "wall_s_dt_kernel_compiled": ratio,
                     "wall_ratio_compiled_vs_numpy_dt": ratio}}


@pytest.mark.parametrize("baseline, candidate", [(0.95, None), (None, None), (None, 0.4)])
def test_null_info_values_are_printed_not_compared(compare_bench, capsys,
                                                   baseline, candidate):
    failures = compare_bench.compare(_report(baseline), _report(candidate), 0.15)
    assert failures == []
    assert f"{baseline} -> {candidate}" in capsys.readouterr().out


def test_cli_accepts_nulls_and_still_gates_on_tracked(compare_bench, tmp_path,
                                                      monkeypatch, capsys):
    base, same, drifted = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    base.write_text(json.dumps(_report(0.95)))
    same.write_text(json.dumps(_report(None)))
    drifted.write_text(json.dumps(_report(None, flops=200)))
    monkeypatch.setattr(sys, "argv", ["compare_bench.py", str(base), str(same)])
    assert compare_bench.main() == 0
    monkeypatch.setattr(sys, "argv", ["compare_bench.py", str(base), str(drifted)])
    assert compare_bench.main() == 1
    capsys.readouterr()
