"""The benchmark harness writes no artifact on a CI smoke run.

``benchmarks/_harness.py`` is the one place that decides whether a
benchmark's table (:func:`emit`) and machine-readable record
(:func:`write_record`) reach disk: a full run writes both, a smoke run
(``REPRO_BENCH_SMOKE=1``) only prints, so smoke numbers never overwrite
the committed ``benchmarks/results/*.txt`` and ``BENCH_*.json`` files.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import _harness  # noqa: E402


@pytest.fixture
def results(tmp_path, monkeypatch):
    monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path / "results")
    return tmp_path


@pytest.mark.parametrize("flag", ["1", "yes"])
def test_smoke_run_writes_nothing(results, monkeypatch, capsys, flag):
    monkeypatch.setenv("REPRO_BENCH_SMOKE", flag)
    _harness.emit("table", "a smoke table")
    _harness.write_record(results / "BENCH_x.json", {"smoke": True})
    assert list(results.iterdir()) == []
    assert "a smoke table" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [None, "0", ""])
def test_full_run_writes_both(results, monkeypatch, flag):
    if flag is None:
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    else:
        monkeypatch.setenv("REPRO_BENCH_SMOKE", flag)
    _harness.emit("table", "a full table")
    _harness.write_record(results / "BENCH_x.json", {"smoke": False})
    assert (results / "results" / "table.txt").read_text() == "a full table\n"
    assert json.loads((results / "BENCH_x.json").read_text()) == {"smoke": False}
