"""The benchmark tooling on canned and committed reports (no benchmark runs here).

A ``BENCH_*.json`` report is a pure work-counter file: exactly ``name``,
``config`` and ``tracked``; ``compare_bench.py`` refuses any other layout and
gates on ``tracked`` alone.
``ab_pairs.py`` turns alternating parent/change harness runs into the verdict
of the rule every speed claim is held to.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[2]
_COMPARE = _REPO / "benchmarks" / "compare_bench.py"
_BASELINES = sorted(_REPO.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", _COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare_files(compare_bench, monkeypatch, baseline, candidate):
    monkeypatch.setattr(sys, "argv", ["compare_bench.py", str(baseline), str(candidate)])
    return compare_bench.main()


def test_cli_refuses_any_key_beside_name_config_tracked(compare_bench, tmp_path,
                                                        monkeypatch, capsys):
    report = {"name": "sparse_baseline", "config": {"rank": 8},
              "tracked": {"flops_dt": 100}}
    base, same, drifted, extra = (tmp_path / f"{name}.json" for name in "abcd")
    base.write_text(json.dumps(report))
    same.write_text(json.dumps(report))
    drifted.write_text(json.dumps({**report, "tracked": {"flops_dt": 200}}))
    extra.write_text(json.dumps({**report, "info": {"wall_s_dt": 0.1}}))
    assert _compare_files(compare_bench, monkeypatch, base, same) == 0
    assert _compare_files(compare_bench, monkeypatch, base, drifted) == 1
    assert _compare_files(compare_bench, monkeypatch, base, extra) == 2
    assert _compare_files(compare_bench, monkeypatch, extra, base) == 2
    assert "info" in capsys.readouterr().err


@pytest.mark.parametrize("path", _BASELINES, ids=lambda path: path.name)
def test_committed_reports_are_work_counters_only(compare_bench, monkeypatch,
                                                  capsys, path):
    assert set(json.loads(path.read_text())) == {"name", "config", "tracked"}
    assert _compare_files(compare_bench, monkeypatch, path, path) == 0
    assert "all tracked metrics within threshold" in capsys.readouterr().out


# -- benchmarks/ab_pairs.py: the alternating-pairs verdict on canned reports --

_AB_PAIRS = _REPO / "benchmarks" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", _AB_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change, failed=(0, 0), metric="pp_approx_sweep_s"):
    """One canned harness report per side and pair (no harness run); the
    harness exits 1 and reports ``"correct": false`` when an operation failed."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value, ops_failed in zip(("parent", "change"), values, failed):
            runs.append({"pair": pair, "side": side, "exit": int(ops_failed > 0), "report": {
                "correct": ops_failed == 0, "attempted": 40, "failed": ops_failed,
                "metrics": {metric: {"value": value, "unit": "s"}}}})
    return runs


_PARENT = [1.00, 1.02, 0.98, 1.05, 0.97, 1.01, 1.03, 0.99, 1.00, 1.04]


def test_ab_pairs_claims_a_gain_only_under_the_rule(ab_pairs):
    clear = ab_pairs.summarize(_runs(_PARENT, [0.4] * 10))
    entry = clear["metrics"]["pp_approx_sweep_s"]
    assert clear["pairs"] == 10 and clear["failed"] == {"parent": 0, "change": 0}
    assert (entry["lower"], entry["higher"], entry["tied"]) == (10, 0, 0)
    assert entry["parent"][1] == pytest.approx(1.005) and entry["change"][1] == 0.4
    assert entry["parent"][0] < entry["parent"][1] < entry["parent"][2]
    assert entry["verdict"] == "gain"

    # 8 of 10 pairs is not nine tenths
    mixed = [0.4] * 8 + [1.2, 1.2]
    assert ab_pairs.summarize(_runs(_PARENT, mixed))[
        "metrics"]["pp_approx_sweep_s"]["verdict"] == "unresolved"
    # every pair lower, but by less than the parent's inter-quartile distance
    close = [p - 0.001 for p in _PARENT]
    entry = ab_pairs.summarize(_runs(_PARENT, close))["metrics"]["pp_approx_sweep_s"]
    assert entry["lower"] == 10 and entry["verdict"] == "unresolved"
    # a tie counts for neither side: 9 lower + 1 tied of 10 still wins
    tied = [0.4] * 9 + [_PARENT[9]]
    entry = ab_pairs.summarize(_runs(_PARENT, tied))["metrics"]["pp_approx_sweep_s"]
    assert (entry["lower"], entry["tied"], entry["verdict"]) == (9, 1, "gain")
    # failed operations on either side: nothing resolves, whatever the clock says
    for failed, slower in (((0, 1), 0.4), ((1, 0), 0.4), ((0, 1), 2.0)):
        summary = ab_pairs.summarize(_runs(_PARENT, [slower] * 10, failed=failed))
        assert summary["incorrect"] == dict(zip(("parent", "change"),
                                                (10 * failed[0], 10 * failed[1])))
        assert summary["metrics"]["pp_approx_sweep_s"]["verdict"] == "unresolved"
        assert "nothing resolves" in ab_pairs.format_summary(summary)
    # so does one run that failed a check without counting a failed operation
    # (exit 1, or "correct" anything but true), even with ``failed == 0``
    for flaw in ({"exit": 1}, {"report": {"correct": False}}, {"report": {"correct": None}}):
        runs = _runs(_PARENT, [0.4] * 10)
        runs[7] = {**runs[7], **flaw, "report": {**runs[7]["report"], **flaw.get("report", {})}}
        summary = ab_pairs.summarize(runs)
        assert summary["failed"] == {"parent": 0, "change": 0}
        assert summary["incorrect"] == {"parent": 0, "change": 1}
        assert summary["metrics"]["pp_approx_sweep_s"]["verdict"] == "unresolved"
    # fewer than ten pairs resolve nothing
    assert ab_pairs.summarize(_runs(_PARENT[:5], [0.4] * 5))[
        "metrics"]["pp_approx_sweep_s"]["verdict"] == "unresolved"
    # the other direction is reported as a loss
    assert ab_pairs.summarize(_runs(_PARENT, [2.0] * 10))[
        "metrics"]["pp_approx_sweep_s"]["verdict"] == "loss"


def test_ab_pairs_honours_the_declared_direction_and_prints_every_metric(ab_pairs):
    runs = _runs(_PARENT, [2.0] * 10, metric="contract.plan_hit_ratio")
    assert ab_pairs.summarize(runs)["metrics"][
        "contract.plan_hit_ratio"]["verdict"] == "loss"
    summary = ab_pairs.summarize(runs, {"contract.plan_hit_ratio": "higher"})
    assert summary["metrics"]["contract.plan_hit_ratio"]["verdict"] == "gain"
    text = ab_pairs.format_summary(summary)
    assert "contract.plan_hit_ratio" in text and "0/10/0" in text and "gain" in text
    directions = ab_pairs.metric_directions(ab_pairs.REPO)
    assert directions["pp_approx_sweep_s"] == "lower"
    assert directions["contract.plan_hit_ratio"] == "higher"


def test_ab_pairs_needs_a_complete_pair(ab_pairs):
    with pytest.raises(ValueError, match="no pair"):
        ab_pairs.summarize(_runs(_PARENT, [0.4] * 10)[:1])
