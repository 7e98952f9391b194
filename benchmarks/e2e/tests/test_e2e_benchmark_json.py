import json
import re
from pathlib import Path

from e2e import trace, workloads

HERE = Path(__file__).resolve().parents[1]
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())["metrics"]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_command():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert BENCH["command"][:2] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= BENCH["run_seconds"] <= 60


def test_names_units_and_bounds_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in BENCH[section]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_setup_metric_has_the_largest_bound():
    by_name = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_are_the_ones_the_code_computes():
    computed = set(trace.SELF_TIME_METRICS) | set(trace.CALL_COUNT_METRICS)
    computed |= set(trace.HARVESTED_METRICS) | {"kernels.us_per_step"}
    computed |= set(workloads.Workload.STAT_METRICS) | {"trace.overhead_ratio"}
    for kernel in workloads.KERNELS.values():
        computed |= {f"kernels.{kernel}.flops", f"kernels.{kernel}.bytes",
                     f"gpu.modeled.{kernel}_pct"}
    computed |= {"gpu.modeled.merge_pct", "gpu.h2d_saved_bytes"}
    assert {m["name"] for m in BENCH["per_layer"]} == computed


def test_every_layer_metric_names_existing_workloads_and_metrics():
    declared = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    names = {w["name"] for w in BENCH["workloads"]}
    assert set(LAYERS) == declared
    for metric, entry in LAYERS.items():
        assert set(entry["workloads"]) <= names, metric
        assert entry["moves"] is None or entry["moves"] in end_to_end, metric
