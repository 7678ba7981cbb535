"""Smoke test of the wall-clock benchmark at tiny sizes.

    python3 -m pytest perfbench/smoke.py -q

Runs every workload ``BENCHMARK.json`` names, untraced and traced, each
in its own process; checks that the run is correct and emits exactly the
metrics ``BENCHMARK.json`` lists, each with its unit; checks that the
exact counts repeat across two traced runs of one seed; and checks that
the command fails without printing a result when the library sources
are missing.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _exact_keys():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXACT


def run(workload, trace, *, script=HERE / "run.py", seed=3):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    exact = _exact_keys()
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns(".work", "out", "__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=skip)
    proc = run(WORKLOADS[0], 0, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""
