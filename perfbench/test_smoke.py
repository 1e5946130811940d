"""Smoke test for the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits every metric BENCHMARK.json names, in both
modes, that attempted and failed do not depend on how many rounds a run fits,
and that the correctness gate trips on corrupted results.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_benchmark_json():
    assert NAMES == list(wl.BUILDERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_failure_counts_do_not_depend_on_rounds():
    runs = {}
    for seconds in ("0.01", "2"):
        proc = run_bench("eval_edge", 0, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        rounds = next(line for line in proc.stdout.splitlines() if line.startswith("rounds:"))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs[seconds] = (rounds.split(",")[0], result["attempted"], result["failed"])
    assert runs["0.01"][0] == "rounds: 1" and runs["2"][0] != "rounds: 1"
    assert runs["0.01"][1:] == runs["2"][1:]
    assert runs["2"][2] > 0


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("eval_pencil", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _fatal(workload) -> list:
    outcomes, _wall = workload.run_round()
    return [o for o in outcomes if o.fatal]


def test_gate_trips_on_corrupted_matrix(monkeypatch):
    w = wl.build("eval_pencil", 3, "tiny")
    assert not _fatal(w)
    orig = wl.connections.evaluate_report

    def corrupted(*args, **kwargs):
        report = orig(*args, **kwargs)
        value = wl.kubomeans.SpdMatrix(1.5 * report.value.entries)
        return dataclasses.replace(report, value=value)

    monkeypatch.setattr(wl.connections, "evaluate_report", corrupted)
    fatal = _fatal(w)
    evaluated = [op for op in w.ops if op.kind == "evaluate"]
    # every evaluate op trips, cantor_mean (order and norm bounds) included
    assert sorted(o.label for o in fatal) == sorted(op.label for op in evaluated)
    assert any(op.ident == "cantor_mean" for op in evaluated)


def test_gate_trips_on_corrupted_edge_value(monkeypatch):
    w = wl.build("eval_edge", 3, "tiny")
    assert not _fatal(w)
    orig = wl.connections.evaluate_report

    def corrupted(*args, **kwargs):
        report = orig(*args, **kwargs)
        value = wl.kubomeans.SpdMatrix(1.5 * report.value.entries)
        return dataclasses.replace(report, value=value)

    monkeypatch.setattr(wl.connections, "evaluate_report", corrupted)
    outcomes, _wall = w.run_round()
    returned = [o for o in outcomes if not o.ok and o.error.startswith("wrong value")]
    # a wrong value fails the run on every input class, the eps schedule's too
    assert {o.group[3] for o in returned} == set(wl.EDGE_CLASSES)
    assert all(o.fatal for o in returned)
    # only cantor_mean has no reference value; at cond 1e10 its order and
    # norm bounds can still hold for 1.5 times the value
    assert all(o.group[0] == "cantor_mean" for o in outcomes if o.ok)


def test_schedule_check_uses_the_schedule_gap():
    a = np.diag([2.0, 0.0])
    b = np.diag([1.0, 1.0])
    ref = np.diag([1.0, 0.0])
    check = wl.schedule_check("x", ref, a, b)
    gap = wl.SCHEDULE_TOL * (1.0 + 2.0 + 1.0)
    assert check(ref + np.diag([0.0, 0.5 * gap])) > 0.0
    with pytest.raises(wl.GateError):
        check(ref + np.diag([0.0, 2.0 * gap]))


def test_gate_trips_on_corrupted_scalar(monkeypatch):
    w = wl.build("repfn_grid", 3, "tiny")
    assert not _fatal(w)
    orig = wl.connections.transpose_rep_function
    monkeypatch.setattr(
        wl.connections, "transpose_rep_function",
        lambda *a, **k: orig(*a, **k) * (1.0 + 1e-5),
    )
    fatal = _fatal(w)
    assert fatal and all(" fT " in o.label for o in fatal)


def test_gate_trips_on_failed_suite(monkeypatch):
    w = wl.build("check_quick", 3, "tiny")
    assert not _fatal(w)
    orig = wl.harness.run_all

    def one_failure(*args, **kwargs):
        reports = orig(*args, **kwargs)
        reports[0] = dataclasses.replace(reports[0], failures=((0, 1.0),))
        return reports

    monkeypatch.setattr(wl.harness, "run_all", one_failure)
    assert len(_fatal(w)) == 1


def test_suite_tasks_are_timed_from_outside():
    w = wl.build("check_quick", 3, "tiny")
    outcomes, wall = w.run_round()
    assert len(outcomes) == len(w.reports) > 0
    assert all(o.seconds >= r.wall_time for o, r in zip(outcomes, w.reports))
    assert wall >= sum(o.seconds for o in outcomes)
