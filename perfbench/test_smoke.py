"""Smoke tests of the benchmark itself, at tiny n.

Run with: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

TINY = {
    "census": {"n": 5, "calls": 2, "expect": "classes: 70, non-self-dual: 0"},
    "report": {"n": 5, "classes": 70},
    "kl_lower": {"n": 4, "lengths": [1, 2, 3, 4, 5], "share": 0.5},
    "queries": {"n": 5, "count": 2, "golden": ["5431627"]},
}
CORRUPTED = {
    "census": {"n": 5, "calls": 2, "expect": "classes: 71, non-self-dual: 0"},
    "report": {"n": 5, "classes": 71},
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(workloads.FULL) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, raw = run.measure(workload, TINY[workload], seed=3, seconds=0, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert len(raw["repeats"]) >= (1 if trace else run.MIN_REPEATS)


@pytest.mark.parametrize("workload", sorted(CORRUPTED))
def test_corrupted_expectation_fails_the_gate(workload):
    result, raw = run.measure(workload, CORRUPTED[workload], seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert all(rec["errors"] for r in raw["repeats"] for rec in r.values())


def test_failed_gate_makes_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(workloads.FULL, "census", CORRUPTED["census"])
    code = run.main(["--workload", "census", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["failed"] / result["attempted"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
