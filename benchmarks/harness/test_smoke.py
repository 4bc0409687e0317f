"""Smoke test of the benchmark harness (``pytest benchmarks/harness -q``).

Runs every workload in ``--tiny`` mode, so it checks that the harness still
fits the program - every named metric present, with its unit, finite - and not
how fast anything is.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from protocol import Operation, OpResult, Tally, run_rounds  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def harness(*args, cwd=ROOT, script=HERE / "run.py"):
    """Run the harness in a session of its own; ``done.left`` lists the
    processes of that session still there (zombies too) once it has exited."""
    with subprocess.Popen([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    done = subprocess.CompletedProcess(child.args, child.returncode, out, err)
    done.left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[3]) == child.pid:
                done.left.append(int(entry.name))
    return done


def test_benchmark_json_names_the_same_metrics():
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}
        assert listed == table
    assert BENCHMARK["paths"] == ["benchmarks/harness"]
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    report_path = tmp_path / "report.json"
    done = harness("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--tiny",
                   "--report-out", str(report_path),
                   "--trace-out", str(tmp_path / "trace.json"))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.left == [], "the run left processes behind"
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert set(last["metrics"]) == set(expected)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == expected[name][0]
        assert math.isfinite(entry["value"])

    report = json.loads(report_path.read_text())
    assert report["layer_probe_errors"] == []
    assert report["env"]["blas_threads_in_force"] == 1
    assert all(e["value"] > 0 for e in report["end_to_end"].values())
    if trace:
        live = {n for n, e in report["per_layer"].items() if e["value"] is not None}
        assert {"core.solve_s", "trees.dt_mttkrp_s", "trace.overhead_pct",
                "raw.als_solve_s", "ref.py_s"} <= live
        # a layer is null exactly where the workload leaves it idle
        assert ("service.overhead_s" in live) == (workload == "small_service")
        assert ("comm.sim_overhead_s" in live) == (workload == "parallel_p4")
        assert ("sparse.csf_build_s" in live) == (workload != "dense4_collinear")
        spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
        assert {"trees.mttkrp", "core.solve", "core.pp_correction"} <= {
            s["name"] for s in spans}


def test_a_result_that_changes_between_rounds_counts_as_failed():
    fitness = iter([0.5, 0.5, 0.25])
    op = Operation("solve", lambda: OpResult({"solve": 0.001},
                                             repeat={"fitness": next(fitness)}))
    tally = Tally()
    run_rounds([op], seconds=0.0, min_rounds=2, tally=tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "not bit-identical" in tally.reasons[0]

    report = {"ops_attempted": tally.attempted, "ops_failed": tally.failed,
              "end_to_end": {"setup_s": {"value": 1.0, "unit": "s"}}}
    assert json.loads(run.contract_line(report, tracing=False))["correct"] is False


def test_failed_operation_checks_and_cross_checks_are_counted():
    from types import SimpleNamespace

    from workloads import Dense4Collinear

    stalled = SimpleNamespace(converged=False, fitness=0.5)
    assert len(Dense4Collinear.solve_checks(
        SimpleNamespace(fitness_floor=0.9997), stalled)) == 2
    tally = Tally()
    assert tally.check("pp fitness >= als fitness - 1e-3", False, "0.1 vs 0.9") is False
    assert (tally.attempted, tally.failed) == (1, 1)


def test_reference_kernels_import_nothing_from_repro():
    code = ("import sys; sys.path.insert(0, %r); import refkernels, protocol, tracing;"
            "refkernels.ReferenceKernels().measure();"
            "bad = [m for m in sys.modules if m.split('.')[0] == 'repro'];"
            "sys.exit(1 if bad else 0)" % str(HERE))
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_without_the_program_the_harness_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__", ".selfcheck-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = harness("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path,
                   script=tmp_path / "benchmarks" / "harness" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
