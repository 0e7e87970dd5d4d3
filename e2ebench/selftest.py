"""The benchmark's own test: tiny runs of every workload.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``); run it explicitly from the repository root::

    python3 -m pytest -q e2ebench/selftest.py

It takes about two minutes on a 2-vCPU machine: the first run trains the
preset into the private cache.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (also those outside BENCHMARK.json)
from tracer import Tracer  # noqa: E402


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, check=False,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = metrics[metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", "0"))
    assert_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [
        result_of(bench("--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    ]
    for result in runs:
        assert_metrics(result, SPEC["per_layer"])
    deterministic = [
        m["name"] for m in SPEC["per_layer"]
        if m["unit"] == "count" or m["name"] == "dram.sim_ns"
    ]
    first, second = (
        {name: r["metrics"][name]["value"] for name in deterministic}
        for r in runs
    )
    assert first == second


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("core.outer"):
        time.sleep(0.02)
        with tracer.span("dram.inner"):
            time.sleep(0.03)
    calls, inclusive, self_s = tracer.totals()
    assert calls == {"core.outer": 1, "dram.inner": 1}
    assert inclusive["core.outer"] >= inclusive["dram.inner"] >= 0.03
    assert self_s["core.outer"] == pytest.approx(
        inclusive["core.outer"] - inclusive["dram.inner"]
    )
    layers = tracer.layer_self_seconds()
    assert layers["core"] + layers["dram"] == pytest.approx(
        inclusive["core.outer"]
    )
