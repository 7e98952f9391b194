"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_args(self):
        args = build_parser().parse_args(
            ["profile", "x.csv", "-m", "32", "--mode", "FP16", "--tiles", "4"]
        )
        assert args.window == 32
        assert args.mode == "FP16"
        assert args.tiles == 4


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "V100" in out and "Skylake16" in out

    def test_model(self, capsys):
        assert main(["model", "-n", "4096", "-d", "8", "--tiles", "4"]) == 0
        out = capsys.readouterr().out
        for mode in ("FP64", "FP32", "FP16", "Mixed", "FP16C"):
            assert mode in out

    def test_demo(self, capsys):
        assert main(["demo", "-n", "400", "-d", "2", "-m", "16", "--mode", "FP32"]) == 0
        out = capsys.readouterr().out
        assert "found motif" in out

    def test_profile_roundtrip(self, tmp_path, capsys, rng):
        data = rng.normal(size=(200, 2))
        wave = 4 * np.sin(np.linspace(0, 6.28, 16))
        data[30:46, 0] += wave
        data[130:146, 0] += wave
        csv = tmp_path / "ts.csv"
        np.savetxt(csv, data, delimiter=",")
        out_prefix = tmp_path / "out"
        assert (
            main(
                ["profile", str(csv), "-m", "16", "--output", str(out_prefix)]
            )
            == 0
        )
        profile = np.loadtxt(f"{out_prefix}_profile.csv", delimiter=",")
        index = np.loadtxt(f"{out_prefix}_index.csv", delimiter=",")
        assert profile.shape == (185, 2)
        assert index.shape == (185, 2)
        text = capsys.readouterr().out
        assert "modelled device time" in text

    def test_profile_ab_join(self, tmp_path, capsys, rng):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        np.savetxt(a, rng.normal(size=(120, 2)), delimiter=",")
        np.savetxt(b, rng.normal(size=(100, 2)), delimiter=",")
        assert main(["profile", str(a), "--query", str(b), "-m", "16"]) == 0

    def test_profile_report_flag(self, tmp_path, capsys, rng):
        csv = tmp_path / "ts.csv"
        np.savetxt(csv, rng.normal(size=(150, 2)), delimiter=",")
        assert main(["profile", str(csv), "-m", "16", "--report"]) == 0
        out = capsys.readouterr().out
        assert "dist_calc" in out
        assert "bound by" in out

    def test_validate_command(self, capsys):
        assert main(["validate", "-n", "100", "-d", "2", "-m", "10"]) == 0
        out = capsys.readouterr().out
        assert "all implementations agree" in out

    def test_plan_command(self, capsys):
        assert main(
            ["plan", "-n", "4096", "-d", "8", "--mode", "FP16",
             "--target-error", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "tiles" in out
        assert "limited by" in out

    def test_plan_explain(self, capsys):
        assert main(
            ["plan", "-n", "512", "-d", "2", "--mode", "FP16", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "autotune report" in out
        assert "chosen:" in out
        assert "tile(s)" in out

    def test_profile_auto_flag(self, tmp_path, capsys, rng):
        csv = tmp_path / "ts.csv"
        np.savetxt(csv, rng.normal(size=(150, 2)), delimiter=",")
        assert main(["profile", str(csv), "-m", "16", "--auto"]) == 0
        assert "modelled device time" in capsys.readouterr().out

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "Table I" in out

    def test_experiments_show_missing(self, capsys, monkeypatch, tmp_path):
        import repro.experiments as exps

        monkeypatch.setattr(exps, "RESULTS_DIR", tmp_path)
        assert main(["experiments", "--show", "fig2"]) == 1

    def test_model_includes_energy(self, capsys):
        assert main(["model", "-n", "2048", "-d", "8"]) == 0
        out = capsys.readouterr().out
        assert "kJ" in out
