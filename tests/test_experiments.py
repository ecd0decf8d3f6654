"""Sweep harness: presets, CSV persistence, plot scripts, run directories."""

import csv
import json

import pytest

from sicnet.errors import DomainError
from sicnet.model import config_from_dict, db_to_linear, rea_association_prob
from sicnet.montecarlo import simulate_rea
from sicnet.experiments import (
    FIG6_BIASES,
    FIG6_ETA_DB,
    PRESETS,
    SweepResult,
    SweepSpec,
    default_spec,
    emit_csv,
    emit_plot_script,
    run_preset,
    two_tier_config,
    write_run_directory,
)


class TestSweepSpec:
    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            SweepSpec(preset="fig9")

    def test_custom_needs_grid(self):
        with pytest.raises(DomainError):
            SweepSpec(preset="custom")

    def test_mc_trial_floor(self):
        with pytest.raises(DomainError):
            SweepSpec(preset="fig2", trials=10)

    def test_defaults_cover_all_presets(self):
        for preset in PRESETS:
            grid = ({"formula": "ps_can", "eta": 1.0, "n": 1, "alpha": 4.0},)
            spec = default_spec(preset, grid=grid)
            assert spec.preset == preset


class TestCustomPreset:
    def test_single_point_single_row(self):
        spec = default_spec(
            "custom",
            grid=({"formula": "ps_can", "eta": 1.0, "n": 1, "alpha": 4.0},),
        )
        result = run_preset(spec)
        assert len(result.rows) == 1
        assert result.rows[0]["analytic_value"] == pytest.approx(0.5600992, rel=1e-6)

    def test_unknown_formula_rejected(self):
        spec = default_spec("custom", grid=({"formula": "nonsense"},))
        with pytest.raises(DomainError):
            run_preset(spec)


class TestFig6Preset:
    def test_annulus_columns_are_the_annulus_runs(self):
        # bias number i draws from seed + i; the annulus columns are what an
        # annulus-mode run reports as cancelled, on the preset's own draws
        trials, seed = 1000, 7
        result = run_preset(default_spec("fig6", trials=trials, seed=seed))
        columns = result.columns
        assert columns.index("mc_rea_annulus_stderr") == columns.index("runtime_ms") - 1
        etas = [db_to_linear(d) for d in FIG6_ETA_DB]
        for i, b in enumerate(FIG6_BIASES):
            res = simulate_rea(
                two_tier_config(bias2=b), 1, etas, trials, seed + i, cancel_mode="annulus"
            )
            rows = [r for r in result.rows if r["bias"] == b]
            assert [(r["mc_rea_annulus_mean"], r["mc_rea_annulus_stderr"]) for r in rows] == [
                (e.mean, e.stderr) for e in res.cancelled
            ]


    def test_meta_carries_the_raw_rows(self, tmp_path):
        # the strongest and annulus columns are control-adjusted; meta.json
        # carries each bias's unadjusted rows, as simulate_rea reports them
        trials, seed = 1000, 7
        result = run_preset(default_spec("fig6", trials=trials, seed=seed))
        run_dir = write_run_directory(result, tmp_path)
        raw = json.loads((run_dir / "meta.json").read_text())["rea_raw"]
        assert set(raw) == {f"{b:g}" for b in FIG6_BIASES}
        etas = [db_to_linear(d) for d in FIG6_ETA_DB]
        for i, b in enumerate(FIG6_BIASES):
            res = simulate_rea(two_tier_config(bias2=b), 1, etas, trials, seed + i)
            assert raw[f"{b:g}"] == res.raw
            rows = [r for r in result.rows if r["bias"] == b]
            assert [r["mc_rea_sic_mean"] for r in rows] != raw[f"{b:g}"]["strongest"]["mean"]


class TestFig2Preset:
    def test_fading_order_is_never_zero(self):
        # each trial reports a conditional probability, positive at every
        # point of the grid; the 0/1 count of the same draws read 0 +- 0 at
        # 9 of the 24 points (10 dB n >= 4, 5 dB n >= 6, 0 dB n = 8)
        result = run_preset(default_spec("fig2", trials=1000, seed=5))
        assert len(result.rows) == 24
        for row in result.rows:
            assert row["mc_fade_mean"] > 0.0 and row["mc_fade_stderr"] > 0.0, row


class TestCsv:
    def fig2_result(self):
        spec = default_spec("fig2", trials=1000, seed=5)
        return run_preset(spec)

    def test_header_schema(self, tmp_path):
        result = self.fig2_result()
        path = emit_csv(result, tmp_path / "result.csv")
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        for col in (
            "n",
            "eta_db",
            "ps_can_pgfl",
            "ps_can_tsd",
            "mc_dist_mean",
            "mc_dist_stderr",
            "mc_fade_mean",
            "mc_fade_stderr",
        ):
            assert col in header

    def test_round_trip_at_printed_precision(self, tmp_path):
        result = self.fig2_result()
        path = emit_csv(result, tmp_path / "result.csv")
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            parsed = list(reader)
        assert len(parsed) == len(result.rows)
        for row, orig in zip(parsed, result.rows):
            for col, value in orig.items():
                if isinstance(value, float):
                    assert format(float(row[col]), ".9g") == format(value, ".9g")

    def test_empty_result_header_only(self, tmp_path):
        empty = SweepResult(preset="fig2", columns=["n", "eta_db"], rows=[])
        path = emit_csv(empty, tmp_path / "empty.csv")
        lines = path.read_text().splitlines()
        assert lines == ["n,eta_db"]

    def test_write_failure_carries_path(self, tmp_path):
        result = self.fig2_result()
        target = tmp_path / "missing" / "result.csv"
        with pytest.raises(OSError, match="missing"):
            emit_csv(result, target)

    def test_rerun_same_seed_identical_data(self):
        a = self.fig2_result()
        b = self.fig2_result()
        keep = [c for c in a.columns if c != "runtime_ms"]
        rows_a = [[row[c] for c in keep] for row in a.rows]
        rows_b = [[row[c] for c in keep] for row in b.rows]
        assert rows_a == rows_b


class TestPlotScript:
    def test_fig3_script_curves(self, tmp_path):
        spec = default_spec("fig3", trials=1000, seed=3)
        result = run_preset(spec)
        path = emit_plot_script(result, tmp_path / "plot.gp")
        text = path.read_text()
        assert "result.csv" in text
        # one curve per cancellation budget plus at least the MC overlay
        assert text.count("with linespoints") >= 6
        assert "bound" in text  # header notes the omitted literature bounds

    def test_custom_script(self, tmp_path):
        spec = default_spec(
            "custom", grid=({"formula": "c_integral", "b": 1.0, "alpha": 4.0},)
        )
        result = run_preset(spec)
        path = emit_plot_script(result, tmp_path / "plot.gp")
        assert "custom sweep" in path.read_text()


class TestCustomCsv:
    def test_inline_config_reads_back(self, tmp_path):
        # the cell is JSON, and config_from_dict of it is the config the row ran with
        config = {
            "alpha": 4.0,
            "mu": 1e-4,
            "mu_j": 1e-4,
            "tiers": [
                {"lambda": 1e-5, "p_dl": 10.0, "q_ul": 10.0},
                {"lambda": 1e-4, "p_dl": 1.0, "q_ul": 1.0, "bias": 5.0},
            ],
        }
        row = {"formula": "ps_ic_rea", "eta": 1.0, "k": 2, "cancelled": 1}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(config))
        spec = default_spec(
            "custom", grid=({**row, "config": config}, {**row, "config": str(path)})
        )
        result = run_preset(spec)
        emit_csv(result, tmp_path / "result.csv")
        with open(tmp_path / "result.csv", encoding="utf-8") as fh:
            inline, by_path = csv.DictReader(fh)
        assert config_from_dict(json.loads(inline["config"])) == config_from_dict(config)
        assert by_path["config"] == str(path)
        assert inline["analytic_value"] == by_path["analytic_value"]


class TestRunDirectory:
    def test_layout_and_metadata(self, tmp_path):
        spec = default_spec(
            "custom",
            grid=({"formula": "ps_can_tsd", "eta": 1.0, "n": 2},),
            output_dir=tmp_path,
        )
        result = run_preset(spec)
        run_dir = write_run_directory(result, tmp_path)
        assert run_dir.parent == tmp_path / "custom"
        assert (run_dir / "result.csv").exists()
        assert (run_dir / "plot.gp").exists()
        meta = json.loads((run_dir / "meta.json").read_text())
        for key in ("seed", "trials", "config_hash", "tool_version", "rows"):
            assert key in meta

    def test_simulator_diagnostics_in_metadata(self, tmp_path):
        # diagnostics that no row holds reach meta.json; the columns do not change
        meta = {}
        for preset in ("fig4", "fig6"):
            result = run_preset(default_spec(preset, trials=1000, seed=7))
            run_dir = write_run_directory(result, tmp_path)
            meta[preset] = json.loads((run_dir / "meta.json").read_text())
            assert not {"no_candidate_trials", "p_rea"} & set(result.columns)
        assert 0 <= meta["fig4"]["no_candidate_trials"] <= 1000
        assert meta["fig6"]["p_rea"] == {
            f"{b:g}": rea_association_prob(two_tier_config(bias2=b), 1) for b in FIG6_BIASES
        }

    def test_fig3_rqmc_layout_in_metadata(self, tmp_path):
        # 1000 trials: 8 replicates of 32 trials and 24 of 31
        result = run_preset(default_spec("fig3", trials=1000, seed=7))
        meta = json.loads((write_run_directory(result, tmp_path) / "meta.json").read_text())
        assert meta["rqmc_layout"] == {
            "replicates": 32, "replicate_trials_min": 31, "replicate_trials_max": 32, "dof": 31,
        }
        assert "rqmc_layout" not in result.columns
