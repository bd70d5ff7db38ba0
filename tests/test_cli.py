"""Tests for the ``python -m repro`` command-line interface."""

import json
import pathlib

import pytest

from repro.__main__ import main


class TestLadder:
    def test_1d_ladder_prints_stages(self, capsys):
        assert main(["ladder", "--dim", "1", "--k", "32", "--batch", "64"]) == 0
        out = capsys.readouterr().out
        for stage in ("A", "B", "C", "D"):
            assert f"stage {stage}:" in out
        assert "pytorch-1d" in out

    def test_2d_ladder(self, capsys):
        assert main(["ladder", "--dim", "2", "--k", "16", "--batch", "4"]) == 0
        assert "pytorch-2d" in capsys.readouterr().out

    def test_2d_ladder_configurable_dims(self, capsys):
        """Both spatial dims are flag-settable (no hardcoded DimX=256)."""
        assert main(["ladder", "--dim", "2", "--k", "16", "--batch", "4",
                     "--fft-x", "128", "--fft-y", "64", "--modes", "32",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        geom = payload["stages"][0]["problem"]
        assert geom["spatial_shape"] == [128, 64]
        assert geom["modes_shape"] == [32, 32]

    def test_legacy_fft_flag_still_sets_dim_y(self, capsys):
        assert main(["ladder", "--dim", "2", "--k", "16", "--batch", "4",
                     "--fft", "64", "--modes", "32", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stages"][0]["problem"]["spatial_shape"] == [256, 64]

    def test_json_output_structure(self, capsys):
        assert main(["ladder", "--dim", "1", "--k", "32", "--batch", "64",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stages = {s["stage"]: s for s in payload["stages"]}
        assert set(stages) == {"pytorch", "A", "B", "C", "D"}
        assert payload["best_stage"] in {"A", "B", "C", "D"}
        assert stages["pytorch"]["speedup_vs_baseline_percent"] == 0.0
        assert stages["D"]["total_time_ms"] < stages["pytorch"]["total_time_ms"]
        assert stages["D"]["kernel_launches"] == 1

    def test_device_flag(self, capsys):
        assert main(["ladder", "--dim", "1", "--k", "32", "--batch", "64",
                     "--device", "h100", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["device"].startswith("H100")

    def test_unknown_device_rejected(self, capsys):
        assert main(["ladder", "--device", "abacus"]) == 2
        err = capsys.readouterr().err
        assert "unknown device 'abacus'" in err
        assert "a100" in err  # lists the registered names

    def test_zero_fft_size_hits_validation(self, capsys):
        """--fft-x 0 must not silently fall back to the default size."""
        assert main(["ladder", "--dim", "1", "--fft-x", "0"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_fft_y_rejected_for_1d(self, capsys):
        """--fft-y with --dim 1 must error, not silently run the default."""
        assert main(["ladder", "--dim", "1", "--fft-y", "64"]) == 2
        assert "--fft-y only applies to --dim 2" in capsys.readouterr().err


class TestClaims:
    def test_claims_show_exact_numbers(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "37.5%" in out
        assert "6.25%" in out
        assert "100.00%" in out

    def test_claims_json(self, capsys):
        assert main(["claims", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        frac = {(r["n"], r["keep"]): r["fraction"] for r in payload["fig05"]}
        assert frac[(4, 1)] == pytest.approx(0.375)
        assert payload["fig07"]["forward_turbofno"] == 1.0
        assert payload["fig08"]["epilogue_naive"] == pytest.approx(0.25)


class TestServeBench:
    def test_serve_bench_reports_bit_identity(self, capsys):
        assert main(["serve-bench", "--requests", "12", "--k", "8",
                     "--signal-batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "req/s" in out

    def test_serve_bench_json_with_backend_and_workers(self, capsys):
        assert main(["serve-bench", "--requests", "8", "--k", "8",
                     "--signal-batch", "1", "--backend", "numpy",
                     "--workers", "2", "--max-batch", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "numpy"
        assert payload["requests"] == 8
        assert payload["stats"]["backend"] == "numpy"
        assert payload["stats"]["executor_pool"] >= 1

    def test_serve_bench_rejects_bad_backend(self):
        with pytest.raises(SystemExit):  # argparse choices
            main(["serve-bench", "--backend", "cuda"])


class TestFigures:
    def test_figures_written(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["figures", "--out", str(out_dir)]) == 0
        written = {p.name for p in out_dir.iterdir()}
        expected = {f"fig{n}.txt" for n in
                    (10, 11, 12, 13, 14, 15, 16, 17, 18, 19)}
        assert expected <= written
        text = (out_dir / "fig14.txt").read_text()
        assert "mean" in text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_tune_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err


class TestLint:
    def test_repo_lints_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_report_with_rule_filter(self, capsys):
        assert main(["lint", "--json", "--rule", "no-assert"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["rules"] == ["no-assert"]
        assert payload["findings"] == []

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("determinism", "cache-scope", "shm-lifecycle",
                     "lock-order", "serve-except", "worker-protocol",
                     "no-assert", "rng-truthiness"):
            assert name in out
        assert "allow src/repro/core/" not in out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("assert True\n")
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "[no-assert]" in capsys.readouterr().out

    def test_unknown_rule_rejected(self, capsys):
        assert main(["lint", "--rule", "made-up"]) == 2
        assert "unknown rule" in capsys.readouterr().err
