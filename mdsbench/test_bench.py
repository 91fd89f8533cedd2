"""Tests of the benchmark itself, at tiny workload sizes.

Run from the repository root::

    python3 -m pytest -q mdsbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "mdsbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, unit in expected.items():
        assert f" {unit} " in next(line for line in proc.stdout.splitlines()
                                   if line.strip().startswith(name + " "))
    if trace == "1":
        proxy_s = result["metrics"]["proxy.self_s"]["value"]
        assert (proxy_s > 0) == (workload == "overload")


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_computes_what_the_plain_run_does(workload):
    def rep(*extra):
        proc = subprocess.run(
            [sys.executable, str(run.WORKER), "--workload", workload,
             "--tiny", *extra],
            capture_output=True, text=True, env=run.child_env(), cwd=ROOT,
            timeout=170, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    plain, traced = rep(), rep("--traced")
    assert plain["fingerprint"] == traced["fingerprint"]
    assert plain["sim"] == traced["sim"]
    assert traced["layers_self_s"]["mds"] > 0


def test_wrappers_are_removed_afterwards():
    import repro.api as api

    before = {(cls, name): cls.__dict__[name]
              for cls, name, _layer in tracing.targets()}
    assert len(before) > 40
    recorder = tracing.SpanRecorder(sample_limit=100)
    installed = tracing.install(recorder)
    try:
        assert all(cls.__dict__[name] is not fn
                   for (cls, name), fn in before.items())
        config = workloads.WORKLOADS["scaling"].tiny(api, 3)
        sim = api.build_simulation(config)
        sim.run_to(0.3)
    finally:
        tracing.uninstall(installed)
    assert all(cls.__dict__[name] is fn
               for (cls, name), fn in before.items())
    assert recorder.calls("Environment.run") == 1
    assert len(recorder.sample) == 100
    assert recorder.stack == []


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "mdsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "scaling", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
