"""``--smoke`` runs of the real command: every declared metric is printed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
BENCH_PATH = ROOT / "BENCHMARK.json"
BENCH = json.loads(BENCH_PATH.read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_smoke_prints_every_declared_metric(traced):
    before = BENCH_PATH.read_bytes()
    proc = _run("--smoke", *(["--trace"] if traced else []))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1

    declared = BENCH["per_layer" if traced else "end_to_end"]
    expected = {f"{w}/{m['name']}" for w in WORKLOADS for m in declared}
    assert set(final["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in declared}
    for key, entry in final["metrics"].items():
        workload, name = key.split("/")
        assert entry["unit"] == units[name]
        assert any(line.startswith(f"{workload} {name} ") and f" {units[name]} " in line
                   for line in lines[:-1]), key

    assert BENCH_PATH.read_bytes() == before
    result_path = max((HERE / "results" / "smoke").glob("*_seed0*.json"),
                      key=lambda p: p.stat().st_mtime)
    result = json.loads(result_path.read_text())
    assert result["smoke"] is True
    assert {"nproc", "cpu_model", "python", "numpy", "git_sha", "seed"} <= set(result["env"])
    for records in result["runs"].values():
        assert all(r["wrappers_left"] == 0 for r in records)
        assert all(r["max_err_ratio"] <= 1.0 for r in records)


def test_fails_without_the_program_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    shutil.copy(BENCH_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
