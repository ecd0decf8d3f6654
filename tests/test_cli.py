"""Command-line interface: exit codes, unit discipline, outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sicnet.cli import build_parser, main

CFG = {
    "alpha": 4.0,
    "mu": 1e-4,
    "mu_j": 1e-4,
    "tiers": [
        {"lambda": 1e-5, "p_dl": 10.0, "q_ul": 10.0},
        {"lambda": 1e-4, "p_dl": 1.0, "q_ul": 1.0, "bias": 5.0},
    ],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(CFG))
    return str(path)


class TestEval:
    def test_ps_can_reference(self, capsys):
        assert main(["eval", "ps_can", "--eta-db", "0", "--n", "1", "--alpha", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.560099" in out
        assert "eta=1" in out  # parameter echo, linear units

    def test_c_integral_reference(self, capsys):
        assert main(["eval", "c_integral", "--b", "1", "--alpha", "4"]) == 0
        assert "0.785398" in capsys.readouterr().out

    def test_ps_sic_breakdown(self, capsys):
        rc = main(
            [
                "eval", "ps_sic", "--eta-db", "0", "--n-max", "1",
                "--lambda-eq", "1e-4", "--mu-j", "1e-4", "--alpha", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "level 1" in out

    def test_config_formula(self, capsys, config_path):
        rc = main(
            ["eval", "outage_max_inst_sir", "--eta-db", "0", "--config", config_path]
        )
        assert rc == 0
        assert "0.576" in capsys.readouterr().out

    def test_unknown_formula_lists_registry(self, capsys):
        assert main(["eval", "nonsense", "--eta", "1"]) == 2
        err = capsys.readouterr().err
        assert "ps_can" in err and "c_integral" in err

    def test_invalid_parameter_exits_2(self, capsys):
        assert main(["eval", "ps_can", "--eta", "1", "--n", "-1", "--alpha", "4"]) == 2
        assert "n" in capsys.readouterr().err

    def test_load_table_beyond_cap_exits_2(self, capsys):
        rc = main(
            ["eval", "rate_coverage_min_load", "--rho", "1e-4", "--lam", "1e-5",
             "--mu-j", "1", "--alpha", "4", "--r-con", "400"]
        )
        assert rc == 2
        assert "mu_j/lam = 100000" in capsys.readouterr().err

    def test_missing_parameter_exits_2(self, capsys):
        assert main(["eval", "ps_can", "--eta", "1"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_eta_flags_mutually_exclusive(self, capsys):
        rc = main(
            ["eval", "ps_can", "--eta", "1", "--eta-db", "0", "--n", "1", "--alpha", "4"]
        )
        assert rc == 2
        assert "not both" in capsys.readouterr().err


class TestSweep:
    def test_custom_sweep_writes_directory(self, tmp_path, capsys):
        grid = [{"formula": "ps_can", "eta": 1.0, "n": 2, "alpha": 4.0}]
        rc = main(
            [
                "sweep", "--preset", "custom", "--grid-json", json.dumps(grid),
                "--output-dir", str(tmp_path), "--seed", "7",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 rows" in out
        run_dirs = list((tmp_path / "custom").iterdir())
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "result.csv").exists()

    @pytest.mark.parametrize(
        "row",
        [
            {"formula": "ps_can", "eta": 1.0, "n": 1.5, "alpha": 4.0},
            {"formula": "load_pmf", "m": 2.5, "mu_j": 1e-4, "lam": 1e-4},
            {"formula": "ps_sic", "eta": 1.0, "n_max": 1.5, "lambda_eq": 1e-4,
             "mu_j": 1e-4, "alpha": 4.0},
        ],
        ids=["n", "m", "n_max"],
    )
    def test_custom_sweep_rejects_fractional_orders(self, tmp_path, capsys, row):
        # a grid's order, load or budget reaches the formula as written, so
        # 1.5 is an error rather than order 1
        rc = main(
            [
                "sweep", "--preset", "custom", "--grid-json", json.dumps([row]),
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_env_var_sets_default_output_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SICNET_OUTPUT_DIR", str(tmp_path / "from_env"))
        parser = build_parser()
        args = parser.parse_args(["sweep", "--preset", "fig2"])
        assert args.output_dir == str(tmp_path / "from_env")

    def test_unwritable_output_exits_1(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        grid = [{"formula": "ps_can_tsd", "eta": 1.0, "n": 1}]
        rc = main(
            [
                "sweep", "--preset", "custom", "--grid-json", json.dumps(grid),
                "--output-dir", str(target), "--seed", "7",
            ]
        )
        assert rc == 1


class TestValidate:
    def test_numerics_suite_passes(self, capsys):
        assert main(["validate", "numerics"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "checks passed" in out

    def test_kurtosis_suite_passes(self, capsys):
        assert main(["validate", "kurtosis"]) == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "everything"])

    def test_preset_trials_floor_exits_2(self, capsys):
        # the figure gates run the presets, which refuse fewer than 1000 trials
        assert main(["validate", "can", "--trials", "500"]) == 2
        assert "trials >= 1000" in capsys.readouterr().err


class TestInspectAndPresets:
    def test_inspect_reports_equivalents(self, capsys, config_path):
        assert main(["inspect", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "lambda_eq" in out and "mu_tilde" in out and "tier 2" in out

    def test_inspect_missing_config_exits_nonzero(self, tmp_path):
        rc = main(["inspect", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "custom"):
            assert name in out

    def test_module_entry_point(self):
        # python -m sicnet from a source checkout, without installing
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "sicnet", "presets"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig3" in proc.stdout


class TestHelpDocumentsUnits:
    @pytest.mark.parametrize("cmd", ["eval", "sweep", "validate", "inspect"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_eval_help_names_units(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        out = capsys.readouterr().out
        assert "dB" in out and "m^2" in out
