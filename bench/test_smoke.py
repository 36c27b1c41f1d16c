"""Smoke self-test of the benchmark, at tiny input sizes:

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(script: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    proc = run(BENCH / "run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    info, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    for key in ("cpu_count", "python", "numpy", "commit", "seed", "input_sha256"):
        assert key in info


def test_input_hash_follows_the_seed():
    first, _ = tiny_run("oracle-diff", 0, seed=1)
    again, _ = tiny_run("oracle-diff", 0, seed=1)
    other, _ = tiny_run("oracle-diff", 0, seed=2)
    assert first["input_sha256"] == again["input_sha256"]
    assert first["input_sha256"] != other["input_sha256"]


def test_every_layer_metric_has_a_target():
    targets = json.loads((BENCH / "targets.json").read_text(encoding="utf-8"))
    assert set(targets) == {m["name"] for m in SPEC["per_layer"]}
    for target in targets.values():
        for workload, metric in target["moves"]:
            assert workload in WORKLOADS
            assert metric in {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_package_source():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare / "bench" / "run.py", "--workload", WORKLOADS[0], "--seed",
                   "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
